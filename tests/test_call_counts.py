"""Each per-record fact is computed once per analysis: one pass of graph,
frames, reduction, networks and autoresolve computes a record's genus words
once and applies each use of a genus word once, and facts carried from one
stage to the next equal the ones a stage would compute afresh.  Each fact of
a sentence is computed once per parse of it, and network traversal builds
no lookup table."""
from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings

from support import lexf_texts, resolved_lexf_texts
from lexigraph import corpus, frames as frames_mod, lexicon as lexicon_mod
from lexigraph import parser as parser_mod, ssn as ssn_mod
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import build_frames
from lexigraph.lexicon import ResolutionError, genus_words, parse_lexf
from lexigraph.parser import autoresolve_all
from lexigraph.prep_rules import load_rule_table
from lexigraph.reduction import reduce_fixpoint
from lexigraph.ssn import build_all_ssns


def counting(monkeypatch, module, name: str, key) -> collections.Counter:
    """Replace ``module.name`` with a wrapper that counts its calls under
    ``key(*args)``."""
    calls: collections.Counter = collections.Counter()
    real = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("word_government", [False, True])
def test_one_pass_computes_each_use_once(monkeypatch, word_government):
    lx = corpus.load_corpus(include_word_government=word_government)
    rules = corpus.load_rules()
    genus = counting(monkeypatch, lexicon_mod, "_genus_words",
                     lambda rec, lexicon: id(rec))
    # a record's parse is memoized on it, so its id names the record
    uses = counting(monkeypatch, frames_mod, "_apply_use_to",
                    lambda slots, family, use, rules: id(use))
    graph = apply_resolutions(build_graph(lx), lx.resolutions)
    frames = build_frames(lx, rules)
    report = reduce_fixpoint(lx, graph, frames, rules)
    build_all_ssns(lx, frames)
    autoresolve_all(lx, frames, rules)

    assert report.set_aside and sum(uses.values()) > 0
    assert set(genus) == {id(rec) for rec in lx.entries}
    assert max(genus.values()) == 1
    words = {id(lexicon_mod.parse_sense(rec)): len(genus_words(rec, lx))
             for rec in lx.entries if not rec.is_synonym_line}
    assert all(n <= words[use] for use, n in uses.items())


def test_reduction_reads_the_deltas_of_the_derivation(monkeypatch, lexicon,
                                                      resolved_graph, rules):
    frames = build_frames(lexicon, rules)
    uses = counting(monkeypatch, frames_mod, "_apply_use_to",
                    lambda slots, family, use, rules: id(use))
    # on the bundled corpus every use the rules read was applied in
    # deriving the frames; a plain dict carries no deltas
    assert reduce_fixpoint(lexicon, resolved_graph, frames, rules).set_aside
    assert not uses
    reduce_fixpoint(lexicon, resolved_graph, dict(frames), rules)
    assert sum(uses.values()) == 44


# the bundled table's rows for every predicate family that a generated
# lexicon can have, so that its uses fill and restrict slots
FAMILIES = ("ALPHA", "BETA", "GAMMA", "GIVE", "GIVE UP", "GIVE-UP", "DELTA",
            "INTO")
RULES_TEXT = "".join(
    f"{prep}\t{family}\t{slot}\t{action}\n"
    for prep, _, slot, action in (
        line.split("\t")
        for line in corpus.corpus_text("prep_rules.tsv").splitlines()
        if line and not line.startswith("#"))
    for family in FAMILIES)


def check_carried_facts(text: str) -> None:
    lx = parse_lexf(text)
    rules = load_rule_table(RULES_TEXT)
    try:
        graph = apply_resolutions(build_graph(lx), lx.resolutions)
    except ResolutionError:  # the frames then follow records the graph lacks
        graph = build_graph(lx)
    frames = build_frames(lx, rules)
    report = reduce_fixpoint(lx, graph, frames, rules)
    assert report == reduce_fixpoint(lx, graph, dict(frames), rules)
    # a table of the same text is another object: the deltas kept with
    # frames built from it are not read, and the result is the same
    other = build_frames(lx, load_rule_table(RULES_TEXT))
    assert report == reduce_fixpoint(lx, graph, other, rules)
    # nor those kept with frames built from another table
    empty = build_frames(lx, load_rule_table(""))
    assert (reduce_fixpoint(lx, graph, empty, rules)
            == reduce_fixpoint(lx, graph, dict(empty), rules))
    fresh = parse_lexf(text)
    for rec, fresh_rec in zip(lx.entries, fresh.entries):
        assert lx._genus[id(rec)] == genus_words(fresh_rec, fresh)


@settings(max_examples=60, deadline=None)
@given(lexf_texts())
def test_carried_facts_equal_fresh_ones(text):
    check_carried_facts(text)


# valid R records, so that frames and graph follow the same arcs: about
# one example in eight then reads deltas the frames kept, and one in
# twenty-five has a use over a provisional frame made for a cycle
@settings(max_examples=100, deadline=None)
@given(resolved_lexf_texts())
def test_carried_facts_equal_fresh_ones_when_resolved(text):
    check_carried_facts(text)


# ---------------------------------------------------------------------------
# the parse path: facts of the sentence are computed once per sentence

def test_disambiguate_takes_the_subject_head_once(monkeypatch, lexicon, ssns,
                                                  frames, rules):
    heads = counting(monkeypatch, parser_mod, "head_noun", lambda text: text)
    chunks = parser_mod.chunk_sentence("The wind changed", lexicon)
    result = parser_mod.disambiguate("changed", chunks, ssns["change"],
                                     frames, rules, lexicon)
    # ten candidates are scored, and questions on the subject are asked
    assert len(result.candidates) > 1
    assert heads["the wind"] <= 1


def test_traverse_builds_no_dict(monkeypatch, lexicon, change_ssn, rules):
    built: list[tuple] = []

    def counting_dict(*args, **kwargs):
        built.append(args)
        return dict(*args, **kwargs)

    # every dict call made by the code of the ssn module, branch maps too
    monkeypatch.setattr(ssn_mod, "dict", counting_dict, raising=False)
    first = ssn_mod.traverse(change_ssn, lambda q: q.branches[0][0])
    unknown = ssn_mod.traverse(change_ssn, {})
    assert len(first.senses) == 1 and not first.open_questions
    assert len(unknown.senses) == len(change_ssn.senses)
    assert built == []
