"""Acceptance suite: one test per criterion, each printing a pass/fail
line and holding its stated time budget."""
from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from lexigraph.corpus import load_corpus, load_manifest, load_rules
from lexigraph.defgraph import (
    Arc,
    DefinitionGraph,
    apply_resolutions,
    build_graph,
    condensation,
    strongly_connected_components,
)
from lexigraph.frames import apply_use, build_frames
from lexigraph.lexicon import PartOfSpeech, SenseKey, parse_sense, senses_of
from lexigraph.parser import (
    SentenceContext,
    VarAllocator,
    autoresolve_all,
    chunk_sentence,
    disambiguate,
    parse_discourse,
)
from lexigraph.reduction import reduce_fixpoint
from lexigraph.ssn import build_all_ssns, traverse

from support import oracle_reaching
from test_defgraph import oracle_sccs, oracle_condensation_arcs, reachability


def change_key(label: str) -> SenseKey:
    return SenseKey("change", PartOfSpeech.VI, 1, label)


FAMILY1 = tuple(change_key(l) for l in
                ("1", "1a", "1b(1)", "1b(2)", "1c", "1d", "1e", "1f",
                 "1g", "1h", "1i"))


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} overran {budget}s ({elapsed:.2f}s)"
    print(f"criterion {number} PASS: {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def env():
    lexicon = load_corpus()
    rules = load_rules()
    graph = build_graph(lexicon)
    resolved = apply_resolutions(graph, lexicon.resolutions)
    frames = build_frames(lexicon, rules)
    ssns = build_all_ssns(lexicon, frames)
    manifest = load_manifest()
    return lexicon, rules, graph, resolved, frames, ssns, manifest


def test_criterion_1_respect_restriction_table(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(1, "respect restrictions of the subsense frames "
                      "reproduce the source strings exactly", 1.0):
        got: list[str] = []

        def collect(slots):
            for s in slots:
                if s.name == "RESPECT":
                    got.extend(s.restrictions)
                collect(s.children)

        for label in ("1a", "1b(1)", "1b(2)", "1c", "1d", "1e", "1f",
                      "1g", "1h", "1i"):
            collect(frames[change_key(label)].slots)
        expected = {
            "characteristic, property, or tendency",
            "form, appearance, position, state, or stage",
            "facial complexion",
            "size, quantity, number, degree, value, intensity, power, "
            "authority, reputation, wealth, amount, strength, etc.",
            "customs, methods, or attitudes specif religious attitudes",
            "phase of the moon",
            "capacity of being sour (e.g. disposition, taste, smell, acidity)",
            "capacity of being tainted (e.g. subject to putrefaction, "
            "corruption, moral contamination)",
            "means of conveyance",
            "vehicle or transportation line being used",
            "register of the voice",
            "voice's tone, pitch, or intensity",
            "method, tempo, or approach",
        }
        normalized = {" ".join(r.split()) for r in got}
        assert normalized == expected
        assert len(got) == len(expected) == 13


def test_criterion_2_respect_deltas_from_uses(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(2, "the seven respect-restricting uses yield exactly "
                      "their seven deltas", 1.0):
        base = frames[change_key("1")]
        rows = {
            ("break", "5c"): "purport, mood, or attitude",
            ("break", "6b"): "line or set",
            ("come round", "2"): "direction or opinion",
            ("cut", "3g"): "direction",
            ("deform", "1"): "shape",
            ("fade", "6a"): "loudness or visibility",
            ("push", "5b"): "quantity or extent",
        }
        seen = []
        for (head, label), expected in rows.items():
            sense = [s for s in senses_of(lexicon, head)
                     if s.label.text == label][0]
            outcome = apply_use(base, parse_sense(sense), rules)
            deltas = [d for d in outcome.deltas
                      if d.kind == "RESTRICT" and d.path[-1] == "RESPECT"]
            assert len(deltas) == 1, (head, label)
            assert deltas[0].value == expected, (head, label)
            seen.append(deltas[0].value)
        assert len(seen) == 7 == manifest.expected("respect_use_rows")


def test_criterion_3_resolution_walkthrough(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(3, "definition-context resolution: one unique "
                      "transforming-family proposal, eight respect-family "
                      "proposals, five open candidate sets", 1.0):
        proposals = {p.using.headword + ":" + p.using.label: p
                     for p in autoresolve_all(lexicon, frames, rules)}
        coalify = proposals["coalify:1"]
        assert coalify.unique == change_key("2")
        for row in ("come over:1a", "devitrify:1", "differ:1b", "melt:1a",
                    "quarter:4", "transfer:2", "transship:1", "weaken:2"):
            p = proposals[row]
            assert p.unique is None, row
            assert p.candidates == FAMILY1, row
        for row in ("caramelize:1", "chop and change:2", "graduate:2",
                    "hold:1b(1)", "specialize:3"):
            p = proposals[row]
            assert p.unique is None, row
            assert len(p.candidates) > 1, row


def test_criterion_4_cycle_breaking(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(4, "optimistic components join change and turn; the "
                      "resolved graph has no nontrivial component", 1.0):
        comps = strongly_connected_components(graph, "optimistic")
        assert {frozenset(c) for c in comps} == oracle_sccs(
            graph.edges("optimistic"))
        joined = [c for c in comps if len(c) > 1]
        assert len(joined) == 1
        heads = {n.headword for n in joined[0]}
        assert {"change", "turn"} <= heads
        resolved_comps = strongly_connected_components(resolved, "resolved-only")
        assert {frozenset(c) for c in resolved_comps} == oracle_sccs(
            resolved.edges("resolved-only"))
        assert max(len(c) for c in resolved_comps) == 1


def test_criterion_5_reduction_fixpoint(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(5, "every defining use is set aside with evidence at "
                      "the hand-classified tallies", 1.0):
        report = reduce_fixpoint(lexicon, resolved, frames, rules)
        using = {k for k in lexicon.sense_keys()
                 if k.pos.is_verb and k.headword != "change"}
        aside = {ev.sense for ev in report.set_aside}
        assert len(using) == 47 and using <= aside
        tallies = report.tallies()
        assert tallies["MULTI-CONCEPT"] == manifest.expected(
            "reduction_multi_concept")
        assert tallies["SLOT-FILL"] == manifest.expected("reduction_slot_fill")
        assert tallies["WORD-GOVERNMENT"] == manifest.expected(
            "reduction_word_government")
        assert tallies["OPTIONAL-COMPONENT"] == manifest.expected(
            "reduction_optional_component")
        assert all(k.headword == "change" for k in report.remaining)


def test_criterion_6_network_property_suite(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(6, "network determinism, reachability, usage pruning, "
                      "and monotonicity over 1000 randomized oracles", 10.0):
        net = ssns["change"]
        questions = {q.qid: q for q in net.questions()}
        rng = random.Random(118)

        def random_answers():
            return {qid: rng.choice([a for a, _ in q.branches] + ["unknown"])
                    for qid, q in sorted(questions.items())}

        # per-sense reachability
        for key in net.senses:
            answers = oracle_reaching(net, key)
            assert answers is not None and traverse(net, answers).senses == (key,)

        checked = 0
        while checked < 1000:
            answers = random_answers()
            first = traverse(net, answers)
            # determinism
            assert traverse(net, answers) == first
            # usage pruning
            forced = dict(answers)
            forced["USAGE used with into"] = "absent"
            assert change_key("2a") not in traverse(net, forced).senses
            # monotonicity: one unknown made concrete never adds senses
            if first.open_questions:
                qid = rng.choice(list(first.open_questions))
                concrete = dict(answers)
                concrete[qid] = rng.choice(
                    [a for a, _ in questions[qid].branches])
                after = traverse(net, concrete)
                assert set(after.senses) <= set(first.senses)
            assert first.senses
            checked += 1


def test_criterion_7_discourse_carryover(env):
    lexicon, rules, graph, resolved, frames, ssns, manifest = env
    with criterion(7, "a later sentence binds the pending state descriptor "
                      "and strictly lowers the open-question count", 1.0):
        sentences = ["The milk changed.", "It turned into curd."]
        solo_opens = 0
        for s in sentences:
            chunks = chunk_sentence(s, lexicon)
            verb = SentenceContext(chunks).verb
            r = disambiguate(verb.text, chunks, ssns[verb.lemma], frames,
                             rules, lexicon, VarAllocator())
            solo_opens += len(r.open_questions)
        results, state = parse_discourse(sentences, lexicon, ssns, frames,
                                         rules)
        assert ("curd" in {v for _, v in state.bindings})
        disc_opens = sum(len(r.open_questions) for r in results)
        assert disc_opens < solo_opens


def test_criterion_8_component_oracle_equivalence(env):
    with criterion(8, "components and condensation match brute force on "
                      "200 random digraphs", 10.0):
        rng = random.Random(20260810)
        for trial in range(200):
            n = rng.randint(1, 30)
            nodes = [SenseKey(f"w{i}", PartOfSpeech.VI, 1, "1")
                     for i in range(n)]
            arcs = []
            for i, src in enumerate(nodes):
                for j, dst in enumerate(nodes):
                    if i != j and rng.random() < 0.1:
                        arcs.append(Arc(src, f"g{j}", frozenset({dst}), True))
            g = DefinitionGraph(frozenset(nodes), tuple(arcs))
            adj = g.edges("resolved-only")
            comps = strongly_connected_components(g, "resolved-only")
            assert {frozenset(c) for c in comps} == oracle_sccs(adj), trial
            cond = condensation(g, "resolved-only")
            expected_comps, expected_arcs = oracle_condensation_arcs(
                adj, oracle_sccs(adj))
            assert [list(c) for c in cond.components] == expected_comps, trial
            assert set(cond.arcs) == expected_arcs, trial
            assert cond.is_acyclic(), trial
