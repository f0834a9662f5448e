"""Self-tests of the benchmark: the generator is deterministic and faithful
to the corpus, and every output check fails on a wrong expectation.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest

import checks
import lexgen
import run
from spans import Tracer

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def bundled():
    L = run.fresh_import()
    rules = L.corpus.load_rules()
    return L, run.analyse(L, run.corpus_texts(), rules, run.NULL)


def test_generator_is_byte_identical_for_a_seed():
    a, b = lexgen.generate(16, 11), lexgen.generate(16, 11)
    assert a == b
    assert a.texts() != lexgen.generate(16, 12).texts()


def test_one_copy_passes_verify_fixture():
    L = run.fresh_import()
    gen = lexgen.generate(1, 3)
    lexicon = L.lexicon.merge_lexicons(
        *(L.lexicon.parse_lexf(t) for t in (gen.lexicon, gen.resolutions)))
    report = L.corpus.verify_fixture(lexicon)
    assert report.ok, report.to_text()
    assert all(r.actual is not None for r in report.rows
               if r.key in ("using_rows", "resolution_rows", "change_vi_lines"))


def test_analysis_check_passes_and_fails_on_a_wrong_count(bundled):
    _, a = bundled
    expected = checks.expected_summary(1, supplement=False)
    assert checks.summary_failures(run.summarise(a), expected) == []
    for section, key in (("reduction", "SLOT-FILL"), ("reduction", "remaining"),
                         ("autoresolve", "unique"), ("autoresolve", "family2")):
        wrong = checks.expected_summary(1, supplement=False)
        wrong[section][key] += 1
        assert checks.summary_failures(run.summarise(a), wrong), (section, key)
    wrong = checks.expected_summary(1, supplement=False)
    wrong["resolved_condensation_acyclic"] = False
    assert checks.summary_failures(run.summarise(a), wrong)


def test_expected_counts_scale_with_copies():
    exp = checks.expected_summary(16, supplement=True)
    assert exp["reduction"] == {"MULTI-CONCEPT": 16, "SLOT-FILL": 496,
                                "WORD-GOVERNMENT": 16,
                                "OPTIONAL-COMPONENT": 240, "remaining": 35}
    assert exp["autoresolve"]["unique"] == 192


def test_sentence_checks_fail_on_a_wrong_sense(bundled):
    L, a = bundled
    for text, expect in checks.CHANGE_SENTENCES.items():
        result = run.parse_sentence(L, a, text, run.NULL)
        assert run.sentence_check(text, expect)(result) is None
        wrong = checks._change("1a") if expect is checks.AMBIGUOUS else checks.AMBIGUOUS
        assert run.sentence_check(text, wrong)(result), text


def test_cli_checks_fail_on_wrong_output(bundled, tmp_path):
    L, _ = bundled
    doc = tmp_path / "d.txt"
    doc.write_text(checks.DISCOURSE, encoding="utf-8")
    for argv, code, check in checks.cli_commands(str(doc)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert L.cli.run(argv) == code, argv
        text = out.getvalue()
        assert check(text), argv
        assert not check(""), argv
        if argv == ["reduce"]:
            assert not check(text.replace("\tSLOT-FILL\t", "\tOPTIONAL-COMPONENT\t", 1))
        if argv == ["autoresolve"]:
            assert not check("\n".join(ln for ln in text.splitlines()
                                        if not ln.startswith("R|coalify")))


def test_cli_peak_rss_is_the_childs_own():
    ballast = bytearray(64 * 1024 * 1024)   # touched: the parent's peak RSS is high
    ballast[::4096] = b"1" * len(ballast[::4096])
    proc = subprocess.run([sys.executable, "-c", run.CLI_MAIN, "ingest"],
                          env=run.cli_env(), cwd=run.ROOT, capture_output=True,
                          text=True, timeout=run.CLI_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert 0 < run.child_peak_kb(proc.stderr) < 64 * 1024


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(checks.CHANGE_SENTENCES, "The moon changed",
                        checks._change("1a"))
    assert run.main(["--workload", "parse-x16", "--seed", "1",
                     "--seconds", "0.3"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_self_time_excludes_child_spans():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    tr.add("probe", 0.5)
    times = tr.self_times()
    (outer,), (inner,), (probe,) = times["outer"], times["inner"], times["probe"]
    total = tr.spans[0][2] - tr.spans[0][1]
    assert outer == pytest.approx(total - inner)
    assert probe == pytest.approx(0.5)
    assert [s[4] for s in tr.spans] == [1, 1, 1, 2]
