from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from support import UNKNOWN_SUBSENSE_LEXF, chain_lexf, chain_word, lexf_texts
from test_golden_cli import GOLDEN, golden_commands
from lexigraph.cli import run
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import MAX_SLOT_DEPTH
from lexigraph.lexicon import ResolutionError, parse_lexf


@pytest.fixture()
def capout(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def test_parse_milk_sentence(capout):
    code, out, err = capout(["parse", "--text", "The milk changed into curd"])
    assert code == 0
    assert "change:vi:1:2a" in out
    assert "curd" in out


def test_parse_strict_ambiguous_exits_three(capout):
    code, out, _ = capout(["parse", "--strict", "--text", "The wind changed"])
    assert code == 3
    assert "open questions" in out


def test_scc_optimistic_contains_change_turn_component(capout):
    code, out, _ = capout(["scc", "--mode", "optimistic"])
    assert code == 0
    big = [ln for ln in out.splitlines() if "\t" in ln]
    assert any("change:vi" in ln and "turn:vi" in ln for ln in big)


def test_scc_resolved_all_singletons(capout):
    code, out, _ = capout(["scc", "--mode", "resolved"])
    assert code == 0
    assert all("\t" not in ln for ln in out.splitlines())


def test_primitives(capout):
    code, out, _ = capout(["primitives"])
    assert code == 0
    candidates = [ln for ln in out.splitlines() if ln.startswith("candidate")]
    assert candidates
    assert all("change:vi" in ln for ln in candidates)
    assert any(ln.startswith("undefined-leaf") for ln in out.splitlines())


def test_ingest_ok(capout):
    code, out, _ = capout(["ingest"])
    assert code == 0
    assert "MISMATCH" not in out


def test_ingest_marks_uncomputed_counts_unchecked(capout):
    code, out, _ = capout(["ingest"])
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines()]
    unchecked = {r[1] for r in rows if r[0] == "unchecked"}
    assert len(rows) == 21 and len(unchecked) == 11
    assert "respect_use_rows" in unchecked
    assert all(r[1].startswith(("reduction_", "autoresolve_"))
               for r in rows if r[0] == "unchecked" and r[1] != "respect_use_rows")
    assert all(r[3] != "actual -" for r in rows if r[0] == "ok")


def test_deep_definition_chain_commands_succeed(capout, tmp_path):
    path = tmp_path / "chain.lexf"
    path.write_text(chain_lexf(1500), encoding="utf-8")
    deepest = chain_word(1499)
    for argv in (["frames", "--word", deepest], ["reduce"], ["autoresolve"],
                 ["ssn", "--word", deepest]):
        code, out, err = capout(["--lexicon", str(path), *argv])
        assert code == 0, (argv, err)
        assert out


def test_deep_seed_slot_path_is_data_error(capout, tmp_path):
    # each operation on a slot tree recurses once per level: a seed path of
    # 1,500 levels once ended frames and parse in a RecursionError traceback
    path = tmp_path / "deep.lexf"
    for depth in (MAX_SLOT_DEPTH, 1500):
        slot = ".".join(["SUBJ"] + ["PART"] * (depth - 1))
        path.write_text(f"E|zap|vi|1\nS|1||become bar|\nF|1|PRED ZAP\n"
                        f"F|1|SLOT {slot} VALUE v\n", encoding="utf-8")
        for argv in (["frames", "--word", "zap"],
                     ["parse", "--text", "The milk zap"]):
            code, out, err = capout(["--lexicon", str(path), *argv])
            if depth == MAX_SLOT_DEPTH:
                assert code == 0, (argv, err)
                assert out.count("PART") == depth - 1
                assert "PART = v" in out
            else:
                assert (code, out) == (2, ""), argv
                assert err == ("lexigraph: zap:vi:1:1: slot path of 1500 "
                               f"levels, more than {MAX_SLOT_DEPTH}\n")


# alpha's one arc is to beta; each R record below fails one check of
# defgraph.apply_resolutions, the first two ones frames did not make
BAD_RECORD_LEXF = """\
E|alpha|vi|1
S|1||to beta in form|

E|beta|vi|1
S|1||to move|

E|gamma|vi|1
S|1||to move|

E|move|vi|1
S|1||to go|
"""
BAD_RECORDS = {
    "unknown-target": (UNKNOWN_SUBSENSE_LEXF,
                       "unknown target sense beta:vi:1:1b"),
    "not-a-sense": (BAD_RECORD_LEXF + "R|alpha:vi:1:1|beta|gamma:vi:1:1\n",
                    "target gamma:vi:1:1 is not a sense of 'beta'"),
    "no-arc": (BAD_RECORD_LEXF + "R|alpha:vi:1:1|move|move:vi:1:1\n",
               "no arc from alpha:vi:1:1 via 'move'"),
}
FRAME_COMMANDS = [
    ["graph"], ["reduce"], ["frames", "--word", "alpha"], ["autoresolve"],
    ["ssn", "--word", "alpha"], ["parse", "--text", "The milk alphas"],
    ["discourse", "--file", "story.txt"],
    # ingest validates its input: it once printed the manifest report
    ["ingest"],
]


@pytest.mark.parametrize("kind,argv", [
    pytest.param(kind, argv, id=f"argv{i}" if kind == "unknown-target"
                 else f"{kind}-argv{i}")
    for kind in BAD_RECORDS for i, argv in enumerate(FRAME_COMMANDS)
])
def test_unknown_target_sense_is_data_error(capout, tmp_path, monkeypatch,
                                            kind, argv):
    # every command that resolves or derives frames rejects the record
    # with graph's message; frames once raised IndexError for an unknown
    # target and accepted the other two kinds
    lexf, message = BAD_RECORDS[kind]
    (tmp_path / "repro.lexf").write_text(lexf, encoding="utf-8")
    (tmp_path / "story.txt").write_text("The milk alphas.\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = capout(["--lexicon", "repro.lexf", *argv])
    assert code == 2
    assert out == ""
    assert err == f"lexigraph: {message}\n"


RECORD_ERRORS = ("is not a sense of", "unknown target sense", "no arc from")


@settings(max_examples=60, deadline=None)
@given(lexf_texts())
def test_every_command_agrees_with_the_graph_on_records(text):
    # the graph's resolution is the one reading of an R record: a command
    # rejects a record exactly when apply_resolutions does, with its message
    lx = parse_lexf(text)
    try:
        apply_resolutions(build_graph(lx), lx.resolutions)
        expected = None
    except ResolutionError as exc:
        expected = f"lexigraph: {exc}\n"
    word = lx.headwords()[0]
    with tempfile.TemporaryDirectory() as tmp:
        lexf, story = Path(tmp, "lexicon.lexf"), Path(tmp, "story.txt")
        lexf.write_text(text, encoding="utf-8")
        story.write_text(f"The milk {word}.\n", encoding="utf-8")
        for argv in (["ingest"], ["graph"], ["scc"], ["primitives"], ["reduce"],
                     ["frames", "--word", word], ["ssn", "--word", word],
                     ["autoresolve"], ["parse", "--text", f"The milk {word}"],
                     ["discourse", "--file", str(story)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["--lexicon", str(lexf), *argv])
            assert code in (0, 2, 3), (argv, err.getvalue())
            if expected is not None:
                assert (code, out.getvalue(), err.getvalue()) == (2, "", expected), argv
            else:
                assert not any(e in err.getvalue() for e in RECORD_ERRORS), argv


def test_graph_dot_export(capout):
    code, out, _ = capout(["--format", "dot", "graph"])
    assert code == 0
    assert out.startswith("digraph")
    assert "change:vi:1:1f" in out


def test_reduce(capout):
    code, out, _ = capout(["reduce"])
    assert code == 0
    assert "iterations to fixpoint" in out


def test_autoresolve_emits_records(capout):
    code, out, _ = capout(["autoresolve"])
    assert code == 0
    assert "R|coalify:vb:1:1|change|change:vi:1:2" in out


def test_frames_dump(capout):
    code, out, _ = capout(["frames", "--word", "change", "--label", "1e"])
    assert code == 0
    assert "phase of the moon" in out


def test_frames_lists_equal_labels_in_file_order(capout, tmp_path):
    # labels 1 and 01 sort equal: they print in file order, whichever of
    # them a record resolves to (and so derives first)
    path = tmp_path / "tie.lexf"
    path.write_text("E|bar|vi|1\nS|1||to foo slowly|\n\n"
                    "E|foo|vi|1\nS|1||to move|\nS|01||to move fast|\n\n"
                    "R|bar:vi:1:1|foo|foo:vi:1:01\n", encoding="utf-8")
    code, out, _ = capout(["--lexicon", str(path), "frames", "--word", "foo"])
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("sense:")] == [
        "sense: foo:vi:1:1", "sense: foo:vi:1:01"]


def test_frames_unknown_label_names_the_label(capout):
    # change has frames, only none under label 9z; the message once said
    # "no frames for 'change'"
    code, out, err = capout(["frames", "--word", "change", "--label", "9z"])
    assert (code, out) == (2, "")
    assert err == "lexigraph: no frames for 'change' with label '9z'\n"


def test_ssn_export(capout):
    code, out, _ = capout(["ssn", "--word", "change"])
    assert code == 0
    assert "ssn for change" in out


def test_output_flags_before_or_after_subcommand(tmp_path, capout):
    before = capout(["--format", "dot", "ssn", "--word", "change"])
    after = capout(["ssn", "--word", "change", "--format", "dot"])
    assert before[0] == after[0] == 0
    assert before[1] == after[1]
    assert before[1].startswith("digraph ssn")
    paths = [tmp_path / "before.dot", tmp_path / "after.dot"]
    assert capout(["--output", str(paths[0]), "--format", "dot", "graph"])[0] == 0
    assert capout(["graph", "--format", "dot", "--output", str(paths[1])])[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # the subcommand's own value wins over one given before it
    assert capout(["--format", "dot", "ssn", "--word", "change",
                   "--format", "text"])[1].startswith("ssn for change")


def test_unknown_flag_is_usage_error(capout):
    code, _, _ = capout(["parse", "--nonsense", "x"])
    assert code == 1


def test_unknown_word_is_data_error(capout):
    code, _, err = capout(["ssn", "--word", "zzz"])
    assert code == 2
    assert "zzz" in err


def test_output_deterministic(capout):
    _, a, _ = capout(["reduce"])
    _, b, _ = capout(["reduce"])
    assert a == b


def test_inputs_not_mutated(tmp_path, capout):
    from lexigraph.corpus import corpus_text
    src = tmp_path / "c.lexf"
    src.write_text(corpus_text(), encoding="utf-8")
    before = src.read_text(encoding="utf-8")
    code, _, _ = capout(["--lexicon", str(src), "scc"])
    assert code == 0
    assert src.read_text(encoding="utf-8") == before


def test_autoresolve_writes_to_new_file(tmp_path, capout):
    out_path = tmp_path / "proposed.lexf"
    code, _, _ = capout(["--output", str(out_path), "autoresolve"])
    assert code == 0
    assert out_path.exists()
    assert "R|" in out_path.read_text(encoding="utf-8")


def test_parse_with_explicit_unresolved_lexicon(tmp_path, capout):
    # parsing asks only about the verb at hand; other headwords may lack
    # distinct representations in an unresolved lexicon
    from lexigraph.corpus import corpus_text
    src = tmp_path / "change_corpus.lexf"
    src.write_text(corpus_text(), encoding="utf-8")
    code, out, _ = capout(["--lexicon", str(src), "parse", "--text",
                           "The milk changed into curd"])
    assert code == 0
    assert "change:vi:1:2a" in out


def test_discourse_file(tmp_path, capout):
    doc = tmp_path / "story.txt"
    doc.write_text("The milk changed.\nIt turned into curd.\n",
                   encoding="utf-8")
    code, out, _ = capout(["discourse", "--file", str(doc)])
    assert code == 0
    assert "change:vi:1:2a" in out
    assert "bindings:" in out and "curd" in out


def test_missing_discourse_file_is_data_error(tmp_path, capout):
    missing = tmp_path / "nosuch.txt"
    code, out, err = capout(["discourse", "--file", str(missing)])
    assert code == 2
    assert out == ""
    assert err.startswith("lexigraph: ") and "nosuch.txt" in err
    assert "Traceback" not in err


def test_unwritable_output_is_data_error(tmp_path, capout):
    target = tmp_path / "nonexistent" / "x"
    code, out, err = capout(["frames", "--word", "change",
                             "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("lexigraph: ") and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("row", [
    "into\tBECOME-DIFFERENT\t\tFILL",
    "into\tBECOME-DIFFERENT\tTO-STATE\tfill",
], ids=["empty-slot", "lowercase-action"])
@pytest.mark.parametrize("argv", [
    ["frames", "--word", "become"],
    ["reduce", "--format", "tsv"],
], ids=["frames", "reduce"])
def test_malformed_rule_row_is_data_error(tmp_path, capout, monkeypatch,
                                          row, argv):
    # a row with no slot once printed a nameless slot ("   = being") and a
    # lowercase action silently turned the rule into residue
    table = tmp_path / "rules.tsv"
    table.write_text("to\tBECOME-DIFFERENT\tTO-STATE\tFILL\n" + row + "\n",
                     encoding="utf-8")
    monkeypatch.setenv("LEXIGRAPH_RULES", str(table))
    code, out, err = capout(argv)
    assert code == 2
    assert out == ""
    assert "rule table line 2:" in err


def test_rules_env_override(tmp_path, capout, monkeypatch):
    table = tmp_path / "rules.tsv"
    table.write_text("into\tBECOME-DIFFERENT\tTO-STATE\tFILL\n",
                     encoding="utf-8")
    monkeypatch.setenv("LEXIGRAPH_RULES", str(table))
    code, out, _ = capout(["parse", "--text", "The milk changed into curd"])
    assert code == 0


@pytest.mark.parametrize("table", ["empty-slot", "missing"])
@pytest.mark.parametrize("stem,argv", [
    pytest.param(stem, argv, id=" ".join(argv))
    for stem, _, argv in golden_commands()
    if {"ingest", "graph", "scc", "primitives"} & set(argv)])
def test_commands_without_rules_ignore_rule_table(tmp_path, capout,
                                                  monkeypatch, table, stem,
                                                  argv):
    # these commands read no rule table; a bad one once made them exit 2
    path = tmp_path / "rules.tsv"
    if table == "empty-slot":
        path.write_text("into\tBECOME-DIFFERENT\t\tFILL\n", encoding="utf-8")
    monkeypatch.setenv("LEXIGRAPH_RULES", str(path))
    code, out, err = capout(argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
