from __future__ import annotations

import pytest

from support import PHRASAL_LEXF
from lexigraph.corpus import load_rules
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import build_frames
from lexigraph.lexicon import PartOfSpeech, SenseKey, parse_lexf
from lexigraph.reduction import (
    ReductionContext,
    reduce_fixpoint,
    rule_multi_concept,
    run_rule,
)


@pytest.fixture(scope="module")
def ctx(lexicon, frames, rules):
    return ReductionContext(lexicon, frames, rules)


@pytest.fixture(scope="module")
def report(lexicon, resolved_graph, frames, rules):
    return reduce_fixpoint(lexicon, resolved_graph, frames, rules)


def key(head, pos, label):
    return SenseKey(head, PartOfSpeech(pos), 1, label)


# ---------------------------------------------------------------------------
# individual rules

def test_diphthongize_slot_fill(ctx):
    ev = run_rule("SLOT-FILL", key("diphthongize", "vi", "1"), ctx)
    assert ev is not None
    assert "SUBJ = a simple vowel" in ev.detail
    assert "a diphthong" in ev.detail


def test_transform_has_no_ordinary_fill(ctx):
    ev = run_rule("SLOT-FILL", key("transform", "vi", "1"), ctx)
    assert ev is not None and ev.detail == "pure synonym"
    # and no other rule fires on it
    for rule in ("MULTI-CONCEPT", "WORD-GOVERNMENT", "OPTIONAL-COMPONENT"):
        assert run_rule(rule, key("transform", "vi", "1"), ctx) is None


def test_curdle_single_fill(ctx):
    ev = run_rule("SLOT-FILL", key("curdle", "vi", "1"), ctx)
    assert ev is not None
    assert ev.detail.count("FILL") == 1
    assert "curd" in ev.detail


def test_chop_not_word_government(ctx):
    assert run_rule("WORD-GOVERNMENT", key("chop", "vi", "3b"), ctx) is None


def test_knife_word_government(wordgov_lexicon, rules):
    frames = build_frames(wordgov_lexicon, rules)
    wctx = ReductionContext(wordgov_lexicon, frames, rules)
    ev = run_rule("WORD-GOVERNMENT", key("knife", "vt", "1"), wctx)
    assert ev is not None and "instrument" in ev.detail
    # and slot-fill does not claim it first
    assert run_rule("SLOT-FILL", key("knife", "vt", "1"), wctx) is None


def test_graduate_optional_component(ctx):
    ev = run_rule("OPTIONAL-COMPONENT", key("graduate", "vi", "2"), ctx)
    assert ev is not None and "gradually" in ev.detail


def test_chop_and_change_optional_component(ctx):
    ev = run_rule("OPTIONAL-COMPONENT", key("chop and change", "vi", "2"), ctx)
    assert ev is not None


def test_change_sense_one_is_not_optional_component(ctx):
    assert run_rule("OPTIONAL-COMPONENT", key("change", "vi", "1"), ctx) is None


def test_hold_multi_concept(ctx):
    ev = run_rule("MULTI-CONCEPT", key("hold", "vi", "1b(1)"), ctx)
    assert ev is not None
    assert "NOT" in ev.detail and "change" in ev.detail
    assert "contribution owed" in ev.detail


def test_aspect_operator_multi_concept():
    lx = parse_lexf("E|simmer|vi|1\nS|1||begin to boil gently|\n")
    rules = load_rules()
    frames = build_frames(lx, rules)
    c = ReductionContext(lx, frames, rules)
    ev = rule_multi_concept(lx._by_key[key("simmer", "vi", "1")], c)
    assert ev is not None and "begin" in ev.detail


def test_deform_not_multi_concept(ctx):
    assert run_rule("MULTI-CONCEPT", key("deform", "vi", "1"), ctx) is None


# ---------------------------------------------------------------------------
# fixpoint

def test_all_using_senses_set_aside(lexicon, report):
    using = {k for k in lexicon.sense_keys()
             if k.pos.is_verb and k.headword != "change"}
    aside = {ev.sense for ev in report.set_aside}
    assert using <= aside
    assert len(using) == 47


def test_tallies_match_manifest(report, manifest):
    t = report.tallies()
    assert t["MULTI-CONCEPT"] == manifest.values["reduction_multi_concept"]
    assert t["SLOT-FILL"] == manifest.values["reduction_slot_fill"]
    assert t["WORD-GOVERNMENT"] == manifest.values["reduction_word_government"]
    assert t["OPTIONAL-COMPONENT"] == manifest.values["reduction_optional_component"]
    assert len(report.remaining) == manifest.values["reduction_remaining"]


def test_remaining_are_change_senses(report):
    assert report.remaining
    assert all(k.headword == "change" for k in report.remaining)


def test_counts_are_consistent(report):
    assert report.initial == len(report.set_aside) + len(report.remaining)
    assert report.iterations >= 1


def test_empty_lexicon_report():
    lx = parse_lexf("")
    rules = load_rules()
    rep = reduce_fixpoint(lx, build_graph(lx), {}, rules)
    assert rep.initial == 0 and not rep.set_aside and not rep.remaining
    assert rep.iterations == 1


def test_evidence_soundness(report, ctx):
    # every evidence record re-verifies by re-running the single named rule
    for ev in report.set_aside:
        again = run_rule(ev.rule, ev.sense, ctx)
        assert again == ev


def test_fixpoint_is_stable(lexicon, resolved_graph, frames, rules, report):
    # re-running on the remaining set yields zero new set-asides
    again = reduce_fixpoint(lexicon, resolved_graph, frames, rules)
    assert again.set_aside == report.set_aside
    assert again.remaining == report.remaining


def test_monotone_under_added_resolutions(lexicon, rules):
    # resolving nothing -> fewer or equal set-asides than resolving all
    unresolved = type(lexicon)(lexicon.entries, lexicon.seed_frames, ())
    bare = reduce_fixpoint(unresolved, None, build_frames(unresolved, rules),
                           rules)
    full = reduce_fixpoint(lexicon, None, build_frames(lexicon, rules), rules)
    aside_bare = {ev.sense for ev in bare.set_aside}
    aside_full = {ev.sense for ev in full.set_aside}
    assert aside_bare <= aside_full


def test_report_formats(report):
    tsv = report.to_tsv()
    assert tsv.startswith("sense\tstatus\trule\tdetail")
    assert "set-aside" in tsv and "remaining" in tsv
    summary = report.summary()
    assert "iterations to fixpoint" in summary
    assert "unverified" in summary  # reverse derivability not checked


def test_phrasal_genus_reaches_its_resolved_frame(rules):
    lx = parse_lexf(PHRASAL_LEXF)
    graph = apply_resolutions(build_graph(lx), lx.resolutions)
    report = reduce_fixpoint(lx, graph, build_frames(lx, rules), rules)
    (evidence,) = report.set_aside
    assert evidence.sense == key("quit", "vi", "1")
    assert evidence.rule == "OPTIONAL-COMPONENT"
    assert evidence.detail == "adverbial only | in: despair"


INSTRUMENT_SLOT_LEXF = """E|strike|vt|1
S|1||hit (something) hard|
F|1|SLOT INSTRUMENT

E|club|vt|1
S|1||strike (someone) with a club|

E|club|n|1
S|1|field:instrument|a heavy stick|

R|club:vt:1:1|strike|strike:vt:1:1
"""


def test_an_instrument_slot_lets_the_genus_govern_an_instrument(rules):
    # the genus definition names no instrument: its seeded INSTRUMENT slot
    # alone makes the with-phrase word government
    rows = []
    for text in (INSTRUMENT_SLOT_LEXF,
                 INSTRUMENT_SLOT_LEXF.replace("F|1|SLOT INSTRUMENT\n", "")):
        lx = parse_lexf(text)
        report = reduce_fixpoint(lx, None, build_frames(lx, rules), rules)
        rows.append(report.to_tsv().splitlines()[1])
    assert rows[0] == ("club:vt:1:1\tset-aside\tWORD-GOVERNMENT\twith-phrase "
                       "object 'club' is defined as an instrument governed "
                       "by strike")
    assert "WORD-GOVERNMENT" not in rows[1]
