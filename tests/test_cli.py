from __future__ import annotations

import os

import pytest

from support import UNKNOWN_SUBSENSE_LEXF, chain_lexf, chain_word
from lexigraph.cli import run


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


@pytest.mark.parametrize("argv", [
    ["graph"], ["reduce"], ["frames", "--word", "alpha"], ["autoresolve"],
    ["ssn", "--word", "alpha"], ["parse", "--text", "The milk alphas"],
    ["discourse", "--file", "story.txt"],
])
def test_unknown_target_sense_is_data_error(capout, tmp_path, monkeypatch, argv):
    # the target's label parent exists; deriving frames once raised
    # IndexError (traceback, exit 1) where the graph commands exit 2
    (tmp_path / "repro.lexf").write_text(UNKNOWN_SUBSENSE_LEXF, encoding="utf-8")
    (tmp_path / "story.txt").write_text("The milk alphas.\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = capout(["--lexicon", "repro.lexf", *argv])
    assert code == 2
    assert out == ""
    assert err == "lexigraph: unknown target sense beta:vi:1:1b\n"


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


def test_rules_env_override(tmp_path, capout, monkeypatch):
    table = tmp_path / "rules.tsv"
    table.write_text("into\tBECOME-DIFFERENT\tTO-STATE\tFILL\n",
                     encoding="utf-8")
    monkeypatch.setenv("LEXIGRAPH_RULES", str(table))
    code, out, _ = capout(["parse", "--text", "The milk changed into curd"])
    assert code == 0
