"""Hand-written references the benchmark checks every output against.

The counts come from the bundled ``manifest.tsv`` (hand traces of the
corpus) and from expectations the test suite states.  This module does
not import lexigraph: callers hand it plain summaries, so a reference can
never be computed by the code it checks.
"""
from __future__ import annotations

from typing import Iterable, Optional

from lexgen import DATA

RULES = ("MULTI-CONCEPT", "SLOT-FILL", "WORD-GOVERNMENT", "OPTIONAL-COMPONENT")


def _change(label: str) -> str:
    return f"change:vi:1:{label}"


# the two sense families of change, as tests/test_parser.py states them
FAMILY1 = tuple(_change(label) for label in
                ("1", "1a", "1b(1)", "1b(2)", "1c", "1d", "1e", "1f",
                 "1g", "1h", "1i"))
FAMILY2 = tuple(_change(label) for label in ("2", "2a", "2b", "2c"))
CHANGE_SENSES = 19

# sentence -> the single sense it must resolve to; AMBIGUOUS means more
# than one sense with a RESPECT question left open (tests/test_parser.py)
AMBIGUOUS = None
CHANGE_SENTENCES = {
    "The milk changed into curd": _change("2a"),
    "The moon changed": _change("1e"),
    "The wind changed": AMBIGUOUS,
}
DISCOURSE = "The milk changed.\nIt turned into curd.\n"


def load_manifest() -> dict[str, int]:
    values = {}
    for raw in (DATA / "manifest.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            key, value, _ = raw.split("\t")
            values[key] = int(value)
    return values


def expected_summary(copies: int, supplement: bool,
                     manifest: Optional[dict[str, int]] = None) -> dict:
    """What one full analysis must produce on ``copies`` copies of the
    using block, with or without the word-government supplement (which
    adds one WORD-GOVERNMENT set-aside, knife vt, and one remaining sense,
    cut vt, per copy)."""
    m = manifest or load_manifest()
    extra = copies if supplement else 0
    reduction = {rule: m["reduction_" + rule.lower().replace("-", "_")] * copies
                 for rule in RULES}
    reduction["WORD-GOVERNMENT"] += extra
    reduction["remaining"] = m["reduction_remaining"] + extra
    autoresolve = {name: m["autoresolve_" + name] * copies
                   for name in ("unique", "family1", "family2",
                                "both_families", "all_senses")}
    return {"reduction": reduction, "autoresolve": autoresolve,
            "resolved_condensation_acyclic": True, "one_frame_per_sense": True,
            "one_network_per_headword": True}


def autoresolve_tallies(rows: Iterable[tuple[bool, tuple[str, ...]]]) -> dict:
    """Categories of autoresolve proposals, each row (unique?, rendered
    candidates in sense order), as tests/test_parser.py counts them."""
    out = dict.fromkeys(("unique", "family1", "family2", "both_families",
                         "all_senses"), 0)
    for unique, cands in rows:
        out["unique"] += unique
        out["family1"] += not unique and cands == FAMILY1
        out["family2"] += bool(not unique and cands and set(cands) <= set(FAMILY2))
        out["both_families"] += cands == FAMILY1 + FAMILY2
        out["all_senses"] += len(cands) == CHANGE_SENSES
    return out


def summary_failures(actual: dict, expected: dict) -> list[str]:
    return [f"{key}: expected {expected[key]}, got {actual.get(key)}"
            for key in expected if actual.get(key) != expected[key]]


def sentence_failure(text: str, expect: Optional[str],
                     candidates: tuple[str, ...],
                     open_questions: tuple[str, ...]) -> Optional[str]:
    if expect is AMBIGUOUS:
        if len(candidates) > 1 and any("RESPECT" in q for q in open_questions):
            return None
        return f"{text!r}: expected several senses and a RESPECT question"
    if candidates != (expect,):
        return f"{text!r}: expected {expect}, got {','.join(candidates)}"
    return None


# ---------------------------------------------------------------------------
# CLI outputs on the bundled corpus

def _reduce_tallies(out: str) -> dict:
    tallies = dict.fromkeys(RULES, 0)
    tallies["remaining"] = 0
    for row in out.split("\n\n")[0].splitlines()[1:]:
        _, status, rule, _ = row.split("\t", 3)
        tallies[rule if status == "set-aside" else status] += 1
    return tallies


def _autoresolve_rows(out: str):
    for line in out.splitlines():
        if line.startswith("R|"):
            yield True, (line.rsplit("|", 1)[1],)
        elif line.startswith("# "):
            yield False, tuple(line.rsplit(": ", 1)[1].split(","))


def _has(*needles: str):
    return lambda out: all(n in out for n in needles)


def cli_commands(discourse_file: str) -> list[tuple[list[str], int, object]]:
    """(argv, documented exit code, check of stdout) for each documented
    command.  The ssn call puts --format before the subcommand: the CLI
    rejects it after ``ssn`` (exit 1), although the README shows it there."""
    bundled = expected_summary(1, supplement=False)
    return [
        (["ingest"], 0, lambda out: out.strip() and "MISMATCH" not in out),
        (["graph"], 0, lambda out: out.startswith("digraph")
         and "change:vi:1:1f" in out),
        (["scc", "--mode", "resolved"], 0,
         lambda out: out.strip() and "\t" not in out),
        (["primitives"], 0, lambda out: "undefined-leaf\t" in out and all(
            "change:vi" in ln for ln in out.splitlines()
            if ln.startswith("candidate"))),
        (["autoresolve"], 0, lambda out: autoresolve_tallies(
            _autoresolve_rows(out)) == bundled["autoresolve"]),
        (["reduce"], 0, lambda out: _reduce_tallies(out) == bundled["reduction"]
         and "iterations to fixpoint" in out),
        (["frames", "--word", "change", "--label", "1e"], 0,
         _has("phase of the moon")),
        (["--format", "dot", "ssn", "--word", "change"], 0,
         lambda out: out.startswith("digraph")),
        (["parse", "--text", "The milk changed into curd"], 0,
         _has(_change("2a"), "curd")),
        (["parse", "--strict", "--text", "The wind changed"], 3,
         _has("open questions")),
        (["discourse", "--file", discourse_file], 0, _has(_change("2a"))),
    ]
