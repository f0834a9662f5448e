from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import dot_strings, edges, lexf_texts
from lexigraph.defgraph import (
    MODES,
    Arc,
    Condensation,
    DefinitionGraph,
    External,
    ResolutionError,
    apply_resolutions,
    build_graph,
    components_tsv,
    condensation,
    primitive_candidates,
    strongly_connected_components,
    to_dot,
)
from lexigraph.lexicon import (
    Lexicon,
    PartOfSpeech,
    ResolutionRecord,
    SenseKey,
    dot_quote,
    parse_lexf,
)


def node(key: str) -> SenseKey:
    head, pos, hom, label = key.rsplit(":", 3)
    return SenseKey(head, PartOfSpeech(pos), int(hom), label)


def by_sort_key(node):
    return node.sort_key()


def arcs_from(graph, source):
    return [a for a in graph.arcs if a.source == source]


# ---------------------------------------------------------------------------
# brute-force oracle

def reachability(adj):
    reach = {n: {n} for n in adj}
    changed = True
    while changed:
        changed = False
        for n in adj:
            for m in list(reach[n]):
                for nxt in adj.get(m, []):
                    if nxt not in reach[n]:
                        reach[n].add(nxt)
                        changed = True
    return reach


def oracle_sccs(adj):
    reach = reachability(adj)
    comps = []
    seen = set()
    for n in adj:
        if n in seen:
            continue
        comp = {m for m in adj if n in reach[m] and m in reach[n]}
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def oracle_condensation_arcs(adj, comps):
    where = {}
    comp_list = sorted((sorted(c, key=by_sort_key) for c in comps),
                       key=lambda c: c[0].sort_key())
    for i, comp in enumerate(comp_list):
        for n in comp:
            where[n] = i
    arcs = set()
    for a, outs in adj.items():
        for b in outs:
            if where[a] != where[b]:
                arcs.add((where[a], where[b]))
    return comp_list, arcs


# ---------------------------------------------------------------------------
# building

def test_empty_lexicon_gives_empty_graph():
    g = build_graph(Lexicon())
    assert not g.nodes and not g.arcs


def test_change_1f_turn_bundle(lexicon, graph):
    source = node("change:vi:1:1f")
    arcs = [a for a in arcs_from(graph, source) if a.genus_word == "turn"]
    assert len(arcs) == 1
    labels = {t.label for t in arcs[0].targets}
    assert labels == {"3b(1)", "4c(1)", "6b(1)", "6b(2)"}
    assert not arcs[0].resolved


def test_every_using_sense_arcs_to_change(lexicon, graph):
    using = {s.key for s in lexicon.entries
             if s.pos.is_verb and s.headword != "change"}
    for key in using:
        arcs = arcs_from(graph, key)
        assert any(a.genus_word == "change" for a in arcs), key


def test_external_genus_words_get_box_nodes(graph):
    externals = {n.headword
                 for n in primitive_candidates(graph).undefined_leaves}
    assert "shift" in externals and "pass" in externals
    dot = to_dot(graph)
    assert 'shape=box' in dot and "dashed" in dot


def test_negated_genus_still_arcs(graph):
    arcs = arcs_from(graph, node("hold:vi:1:1b(1)"))
    assert arcs and arcs[0].negated


@settings(max_examples=100, deadline=None)
@given(lexf_texts())
def test_nodes_are_sense_keys_or_external_genus_words(text):
    lx = parse_lexf(text)
    graph = build_graph(lx)
    external = {n for n in graph.nodes if n.pos is None}
    assert graph.nodes - external == set(lx.sense_keys())
    for ext in external:
        assert isinstance(ext, External)
        assert any(arc.genus_word == ext.headword
                   and arc.targets == frozenset({ext}) for arc in graph.arcs)
    shapes = {}
    for line in to_dot(graph).splitlines():
        if "[shape=" in line:
            (name,) = dot_strings(line)
            assert name not in shapes, name
            shapes[name] = line.rsplit("shape=", 1)[1].rstrip("];")
    assert shapes == {n.render(): "box" if n in external else "ellipse"
                      for n in graph.nodes}
    assert len(shapes) == len(graph.nodes)


def test_build_graph_deterministic(lexicon):
    a = build_graph(lexicon)
    b = build_graph(lexicon)
    assert a.arcs == b.arcs and a.nodes == b.nodes


def test_vb_senses_are_targets_for_both_uses():
    lx = parse_lexf(
        "E|a|vi|1\nS|1||b quickly|\n"
        "E|c|vt|1\nS|1||b (something) slowly|\n"
        "E|b|vb|1\nS|1||drift away|\n")
    g = build_graph(lx)
    for src in ("a:vi:1:1", "c:vt:1:1"):
        arcs = arcs_from(g, node(src))
        assert arcs[0].targets == frozenset({node("b:vb:1:1")}), src


# ---------------------------------------------------------------------------
# resolution

def test_resolve_coalify(lexicon, graph):
    record = ResolutionRecord(
        SenseKey("coalify", PartOfSpeech.VB, 1, "1"), "change",
        SenseKey("change", PartOfSpeech.VI, 1, "2"))
    g2 = apply_resolutions(graph, (record,))
    arcs = [a for a in arcs_from(g2, node("coalify:vb:1:1"))
            if a.genus_word == "change"]
    assert arcs[0].resolved
    assert arcs[0].targets == frozenset({node("change:vi:1:2")})


def test_resolve_idempotent(lexicon, graph):
    record = lexicon.resolutions[0]
    once = apply_resolutions(graph, (record,))
    twice = apply_resolutions(once, (record,))
    assert once == twice == apply_resolutions(graph, (record, record))


def test_resolve_errors(graph):
    with pytest.raises(ResolutionError):
        apply_resolutions(graph, (ResolutionRecord(
            SenseKey("nothere", PartOfSpeech.VI, 1, "1"), "change",
            SenseKey("change", PartOfSpeech.VI, 1, "2")),))
    with pytest.raises(ResolutionError):
        apply_resolutions(graph, (ResolutionRecord(
            SenseKey("coalify", PartOfSpeech.VB, 1, "1"), "change",
            SenseKey("turn", PartOfSpeech.VI, 1, "6b(2)")),))


def test_resolving_breaks_change_turn_cycle(lexicon, graph, resolved_graph):
    # before resolution the optimistic graph has a component joining
    # change and turn senses
    comps = strongly_connected_components(graph, "optimistic")
    big = [c for c in comps if len(c) > 1]
    assert len(big) == 1
    heads = {n.headword for n in big[0]}
    assert "change" in heads and "turn" in heads
    # resolving 1f's turn arc away from the cross-reference senses keeps
    # the resolved-only graph free of any change/turn cycle
    extra = ResolutionRecord(
        SenseKey("change", PartOfSpeech.VI, 1, "1f"), "turn",
        SenseKey("turn", PartOfSpeech.VI, 1, "3b(1)"))
    g2 = apply_resolutions(resolved_graph, (extra,))
    adj = edges(g2, "resolved-only")
    for comp in oracle_sccs(adj):
        assert len(comp) == 1


def test_resolution_monotonicity(lexicon, graph):
    # resolved-only reachability after resolving is contained in the
    # optimistic reachability before
    resolved = apply_resolutions(graph, lexicon.resolutions)
    before = reachability(edges(graph, "optimistic"))
    after = reachability(edges(resolved, "resolved-only"))
    for n, reach in after.items():
        assert reach <= before[n]


# ---------------------------------------------------------------------------
# components, condensation, primitives

def test_no_arcs_all_singletons():
    nodes = frozenset(SenseKey(f"w{i}", PartOfSpeech.VI, 1, "1") for i in range(5))
    g = DefinitionGraph(nodes, ())
    comps = strongly_connected_components(g, "optimistic")
    assert all(len(c) == 1 for c in comps)
    assert len(comps) == 5


def test_corpus_components_match_oracle(graph, resolved_graph):
    for g, mode in ((graph, "optimistic"), (resolved_graph, "resolved-only")):
        comps = strongly_connected_components(g, mode)
        assert {frozenset(c) for c in comps} == oracle_sccs(edges(g, mode))
        # canonical order: components by smallest member, members sorted
        firsts = [c[0].sort_key() for c in comps]
        assert firsts == sorted(firsts)


def test_resolved_only_with_shipped_file_has_no_nontrivial_component(resolved_graph):
    comps = strongly_connected_components(resolved_graph, "resolved-only")
    assert max(len(c) for c in comps) == 1


def test_condensation_is_acyclic(graph, resolved_graph):
    for g, mode in ((graph, "optimistic"), (graph, "resolved-only"),
                    (resolved_graph, "resolved-only")):
        assert condensation(g, mode).is_acyclic()


@pytest.mark.parametrize("arcs", [((0, 1), (1, 2), (2, 0)), ((0, 0),)],
                         ids=["cycle", "self-loop"])
def test_a_cycle_of_components_is_not_acyclic(arcs):
    # a condensation never holds one; a hand-built one may
    alter = External("alter")
    assert not Condensation(((alter,),) * 3, arcs).is_acyclic()
    assert Condensation(((alter,),) * 3, arcs[1:]).is_acyclic()


def test_condensation_lifted_arc_to_external_shift(graph):
    cond = condensation(graph, "optimistic")
    comps = cond.components
    big_idx = next(i for i, c in enumerate(comps) if len(c) > 1)
    shift_idx = next(i for i, c in enumerate(comps)
                     if len(c) == 1 and c[0].pos is None
                     and c[0].headword == "shift")
    assert (big_idx, shift_idx) in cond.arcs


def test_singleton_graph_condensation():
    n = SenseKey("w", PartOfSpeech.VI, 1, "1")
    g = DefinitionGraph(frozenset({n}), ())
    cond = condensation(g, "optimistic")
    assert cond.components == ((n,),) and cond.arcs == ()


def test_primitive_candidates_exclude_using_senses(lexicon, resolved_graph):
    report = primitive_candidates(resolved_graph)
    members = {n for comp in report.candidates for n in comp}
    assert members
    assert all(n.headword == "change" for n in members)
    using = {s.key for s in lexicon.entries
             if s.pos.is_verb and s.headword != "change"}
    assert not members & using


def test_externally_defined_sense_is_not_candidate():
    lx = parse_lexf("E|frob|vi|1\nS|1||wiggle quickly|\n")
    g = build_graph(lx)
    report = primitive_candidates(g)
    # frob's arc is unresolved, so frob stays terminal and is a candidate;
    # the external word is a leaf, never a candidate
    leaves = {n.headword for n in report.undefined_leaves}
    assert "wiggle" in leaves
    for comp in report.candidates:
        assert all(n.pos is not None for n in comp)


def test_mutual_pair_reports_one_candidate_block():
    lx = parse_lexf(
        "E|alpha|vi|1\nS|1||beta quickly|\n"
        "E|beta|vi|1\nS|1||alpha slowly|\n"
        "R|alpha:vi:1|beta|beta:vi:1\n"
        "R|beta:vi:1|alpha|alpha:vi:1\n")
    g = apply_resolutions(build_graph(lx), lx.resolutions)
    report = primitive_candidates(g)
    assert len(report.candidates) == 1
    assert len(report.candidates[0]) == 2


def test_components_tsv_format(resolved_graph):
    comps = strongly_connected_components(resolved_graph, "resolved-only")
    tsv = components_tsv(comps)
    assert len(tsv.splitlines()) == len(comps)


# ---------------------------------------------------------------------------
# random-graph properties

def _random_graph(rng: random.Random, n_nodes: int) -> DefinitionGraph:
    nodes = [SenseKey(f"w{i}", PartOfSpeech.VI, 1, "1") for i in range(n_nodes)]
    arcs = []
    for i, src in enumerate(nodes):
        for j, dst in enumerate(nodes):
            if i != j and rng.random() < 0.12:
                arcs.append(Arc(src, f"g{j}", frozenset({dst}), True))
    return DefinitionGraph(frozenset(nodes), tuple(arcs))


def test_components_match_oracle_on_random_graphs():
    rng = random.Random(20260810)
    for trial in range(60):
        g = _random_graph(rng, rng.randint(1, 30))
        adj = edges(g, "resolved-only")
        got = {frozenset(c)
               for c in strongly_connected_components(g, "resolved-only")}
        assert got == oracle_sccs(adj), f"trial {trial}"


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 30))
def test_components_partition_nodes(n, seed):
    g = _random_graph(random.Random(seed), n)
    comps = strongly_connected_components(g, "resolved-only")
    seen = [node for comp in comps for node in comp]
    assert sorted(seen, key=by_sort_key) == sorted(g.nodes, key=by_sort_key)
    assert len(seen) == len(set(seen))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 30))
def test_condensation_acyclic_on_random_graphs(n, seed):
    g = _random_graph(random.Random(seed), n)
    assert condensation(g, "resolved-only").is_acyclic()


# ---------------------------------------------------------------------------
# one-pass resolution against the per-record fold

def _resolve_reference(graph: DefinitionGraph,
                       record: ResolutionRecord) -> DefinitionGraph:
    """One record against every arc: the definition apply_resolutions
    must agree with when folded over the records in order."""
    source, target = record.from_key, record.target
    if record.target.headword != record.genus_word:
        raise ResolutionError(
            f"target {record.target.render()} is not a sense of {record.genus_word!r}")
    if target not in graph.nodes:
        raise ResolutionError(f"unknown target sense {record.target.render()}")
    matched = False
    new_arcs = []
    for arc in graph.arcs:
        if arc.source == source and arc.genus_word == record.genus_word:
            matched = True
            new_arcs.append(Arc(arc.source, arc.genus_word, frozenset({target}),
                                True, arc.negated, arc.line))
        else:
            new_arcs.append(arc)
    if not matched:
        raise ResolutionError(
            f"no arc from {record.from_key.render()} via {record.genus_word!r}")
    return DefinitionGraph(graph.nodes, tuple(new_arcs))


def _outcome(fn):
    try:
        graph = fn()
    except ResolutionError as exc:
        return ("error", str(exc))
    return ("graph", graph, tuple(a.line for a in graph.arcs))


@settings(max_examples=150, deadline=None)
@given(lexf_texts(), st.data())
def test_apply_resolutions_equals_per_record_fold(text, data):
    lx = parse_lexf(text)
    graph = build_graph(lx)
    # the text's records are mostly bad; records drawn from real arcs,
    # with repeats, test last-wins
    records = list(lx.resolutions) if data.draw(st.booleans()) else []
    internal = [n for n in graph.nodes if n.pos is not None]
    for _ in range(data.draw(st.integers(0, 6))):
        if not graph.arcs:
            break
        arc = data.draw(st.sampled_from(graph.arcs))
        pool = [n for n in internal if n.headword == arc.genus_word] or internal
        target = data.draw(st.sampled_from(pool))
        records.insert(data.draw(st.integers(0, len(records))),
                       ResolutionRecord(arc.source, arc.genus_word, target))

    def fold():
        g = graph
        for record in records:
            g = _resolve_reference(g, record)
        return g

    assert _outcome(lambda: apply_resolutions(graph, records)) == _outcome(fold)
    for record in records[:3]:
        assert (_outcome(lambda: apply_resolutions(graph, (record,)))
                == _outcome(lambda: _resolve_reference(graph, record)))


def _graph_facts(g: DefinitionGraph) -> list:
    return [(edges(g, m), strongly_connected_components(g, m), condensation(g, m))
            for m in MODES] + [primitive_candidates(g)]


@settings(max_examples=80, deadline=None)
@given(lexf_texts(), st.data())
def test_graph_facts_are_memoized_safely(text, data):
    def resolved_graph():
        graph = build_graph(parse_lexf(text))
        return apply_resolutions(graph, records)

    graph = build_graph(parse_lexf(text))
    records = []
    for arc in graph.arcs:
        target = min(arc.targets, key=by_sort_key)
        if target.pos is not None and data.draw(st.booleans()):
            records.append(ResolutionRecord(arc.source, arc.genus_word, target))
    g = resolved_graph()
    first = _graph_facts(g)
    # callers own what they are handed: mutating it leaves the memo intact
    bogus = External("bogus")
    for mode in MODES:
        comps = strongly_connected_components(g, mode)
        for comp in comps:
            comp.clear()
        comps.append([bogus])
    fresh = resolved_graph()
    assert g == fresh
    assert _graph_facts(g) == first == _graph_facts(fresh)


def test_unknown_mode_is_rejected(graph):
    for fn in (lambda m: strongly_connected_components(graph, m),
               lambda m: condensation(graph, m)):
        with pytest.raises(ValueError, match="unknown mode"):
            fn("pessimistic")


def test_apply_resolutions_last_record_wins(lexicon, graph):
    source = SenseKey("coalify", PartOfSpeech.VB, 1, "1")
    first = ResolutionRecord(source, "change", SenseKey("change", PartOfSpeech.VI, 1, "2"))
    last = ResolutionRecord(source, "change", SenseKey("change", PartOfSpeech.VI, 1, "1"))
    g = apply_resolutions(graph, [first, last])
    arcs = [a for a in arcs_from(g, node("coalify:vb:1:1")) if a.genus_word == "change"]
    assert arcs and all(a.resolved and a.targets == frozenset({node("change:vi:1:1")})
                        for a in arcs)


def test_apply_resolutions_reports_first_bad_record(graph):
    good = ResolutionRecord(SenseKey("coalify", PartOfSpeech.VB, 1, "1"), "change",
                            SenseKey("change", PartOfSpeech.VI, 1, "2"))
    no_arc = ResolutionRecord(SenseKey("nothere", PartOfSpeech.VI, 1, "1"), "change",
                              SenseKey("change", PartOfSpeech.VI, 1, "2"))
    wrong_word = ResolutionRecord(SenseKey("coalify", PartOfSpeech.VB, 1, "1"), "change",
                                  SenseKey("turn", PartOfSpeech.VI, 1, "6b(2)"))
    with pytest.raises(ResolutionError, match="no arc from nothere"):
        apply_resolutions(graph, [good, no_arc, wrong_word])
    with pytest.raises(ResolutionError, match="is not a sense of"):
        apply_resolutions(graph, [good, wrong_word, no_arc])


# ---------------------------------------------------------------------------
# DOT export escapes its quoted strings

QUOTED_LEXICON = (
    "E|change|vi|1\nS|1||become different|\n"
    'E|say "when"|vi|1\nS|1||change slowly|\n'
    "E|back\\slash|vi|1\nS|1||change with care|\n"
    'E|quote|vi|1\nY|1|SAY"WHEN"\n')


def test_dot_quote_escapes_quotes_and_backslashes():
    assert dot_quote('say "when"') == '"say \\"when\\""'
    assert dot_quote("back\\slash") == '"back\\\\slash"'
    assert dot_quote("change:vi:1:1") == '"change:vi:1:1"'


def test_graph_dot_escapes_labels():
    g = build_graph(parse_lexf(QUOTED_LEXICON))
    names = dot_strings(to_dot(g))
    assert 'say "when":vi:1:1' in names
    assert "back\\slash:vi:1:1" in names
    assert 'say"when"' in names   # a synonym's genus word as an arc label
    assert 'say"when" (external)' in names
