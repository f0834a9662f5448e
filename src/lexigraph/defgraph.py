"""Definitional digraph: arcs from definienda to the senses of their genus
words, arc resolution to break spurious cycles, strong components,
condensation, and primitive candidates.

Nodes are sense keys: one SenseKey per sense of the lexicon.  A genus word
with no compatible sense in the lexicon becomes an External node, rendered
``word (external)``.

Arc direction is definiendum -> defining sense ("derives from"); primitives
live in terminal (sink-side) components of the fully resolved graph.
Graphs are immutable values; apply_resolutions() returns a new graph.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from operator import attrgetter

from .lexicon import (
    Lexicon,
    PartOfSpeech,
    ResolutionError,  # re-exported
    ResolutionRecord,
    Sense,
    SenseKey,
    _LineBlind,
    _VB,
    _VI,
    _VT,
    dot_quote,
    genus_words,
    parse_sense,
    resolution_targets,
)

MODES = ("optimistic", "resolved-only")


class External(namedtuple("External", "headword")):
    """A genus word with no compatible sense in the lexicon.  Every other
    node is a SenseKey; ``pos is None`` tells the two apart.  External
    nodes have no arcs of their own."""

    __slots__ = ()
    pos = None

    def render(self) -> str:
        return f"{self.headword} (external)"

    def sort_key(self) -> tuple:
        return (self.headword, "~external", 0, ())


Node = SenseKey | External


def _sort_key(node: Node) -> tuple:
    return node.sort_key()


class Arc(_LineBlind, namedtuple(
        "Arc", "source genus_word targets resolved negated line",
        defaults=(False, False, 0))):
    """One genus head of one definition line: from its source SenseKey via
    its genus word to a frozenset of target nodes.  Unresolved arcs bundle
    every POS-compatible sense of the genus word; resolution narrows the
    bundle to a single target."""

    __slots__ = ()


class DefinitionGraph(namedtuple("DefinitionGraph", "nodes arcs")):
    """Nodes (a frozenset) and arcs (a tuple).  A graph is an immutable
    value: the adjacency, components and condensation of each mode are
    computed on first use and kept on the instance (not as fields, so
    ``==`` ignores them).  Callers get copies of the mutable ones."""

    @cached_property
    def _by_mode(self) -> dict[tuple[str, str], object]:
        """(fact, mode) -> the memoized adjacency, components or
        condensation; never handed out."""
        return {}

    def _memo(self, fact: str, mode: str, compute):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        memo = self._by_mode
        value = memo.get((fact, mode))
        if value is None:
            value = memo[(fact, mode)] = compute(self, mode)
        return value


def _adjacency(graph: DefinitionGraph, mode: str) -> dict[Node, list[Node]]:
    """Adjacency under a mode: optimistic takes every member of every
    bundle; resolved-only takes resolved arcs exclusively."""
    adj: dict[Node, list[Node]] = {n: [] for n in graph.nodes}
    for arc in graph.arcs:
        if mode == "resolved-only" and not arc.resolved:
            continue
        outs = adj[arc.source]
        targets = arc.targets
        if len(targets) > 1:
            targets = sorted(targets, key=_sort_key)
        for t in targets:
            if t not in outs:
                outs.append(t)
    return adj


def _use_pos(sense: Sense, parsed) -> PartOfSpeech:
    """Transitivity of the genus use, read off the parsed definition."""
    if parsed is not None and parsed.transitive_use:
        return _VT
    return _VI


def build_graph(lexicon: Lexicon) -> DefinitionGraph:
    """One node per sense key, one arc per (definition line, genus head).
    Synonym refs arc identically; genus words with no compatible sense in
    the lexicon get a single external target."""
    arcs: list[Arc] = []
    bundles: dict[tuple[str, PartOfSpeech], frozenset[Node]] = {}
    for s in lexicon.entries:
        if not s.pos.is_verb:
            continue
        if s.is_synonym_line:
            use = s.pos if s.pos is not _VB else _VI
            negated = False
        else:
            parsed = parse_sense(s)
            use, negated = _use_pos(s, parsed), parsed.negated
        for word in genus_words(s, lexicon):
            targets = bundles.get((word, use))
            if targets is None:
                found = frozenset(k for k in lexicon._by_headword.get(word, ())
                                  if use.accepts_target(k.pos))
                targets = bundles[(word, use)] = found or frozenset({External(word)})
            arcs.append(Arc(s.key, word, targets, False, negated, s.line))

    nodes: set[Node] = set(lexicon.sense_keys())
    for targets in bundles.values():
        nodes.update(targets)
    arcs.sort(key=attrgetter("line", "genus_word"))
    return DefinitionGraph(frozenset(nodes), tuple(arcs))


def apply_resolutions(graph: DefinitionGraph,
                      records: Iterable[ResolutionRecord]) -> DefinitionGraph:
    """Apply resolution records in one pass over the arcs.  Records are
    checked in order and the first bad one raises ResolutionError; when
    several records name the same (from sense, genus word), the last wins,
    as if each were applied to the result of the one before."""
    chosen = resolution_targets(
        records, graph.nodes, {(arc.source, arc.genus_word) for arc in graph.arcs})
    new_arcs = []
    for arc in graph.arcs:
        source, word, _, _, negated, line = arc
        target = chosen.get((source, word))
        if target is not None:
            arc = Arc(source, word, frozenset((target,)), True, negated, line)
        new_arcs.append(arc)
    return DefinitionGraph(graph.nodes, tuple(new_arcs))


def strongly_connected_components(graph: DefinitionGraph,
                                  mode: str = "optimistic") -> list[list[Node]]:
    """Tarjan over the mode's edge set; components in canonical order
    (smallest member key first), members sorted."""
    return [list(comp) for comp in graph._memo("components", mode, _tarjan)]


def _tarjan(graph: DefinitionGraph, mode: str) -> list[list[Node]]:
    adj = graph._memo("edges", mode, _adjacency)
    sort_key = {n: n.sort_key() for n in adj}.__getitem__
    order = sorted(adj, key=sort_key)
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    counter = 0
    components: list[list[Node]] = []

    for root in order:
        if root in index:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            neighbours = adj[node]
            advanced = False
            while ei < len(neighbours):
                nxt = neighbours[ei]
                ei += 1
                if nxt not in index:
                    work.append((node, ei))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    comp.sort(key=sort_key)
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sorted(components, key=lambda c: sort_key(c[0]))


class Condensation(namedtuple("Condensation", "components arcs")):
    """The strong components, each a tuple of nodes, and the arcs between
    them as pairs of indexes into ``components``."""

    __slots__ = ()

    def is_acyclic(self) -> bool:
        """Whether the arcs close no cycle: Kahn's count, in which each
        component is freed once every arc into it is."""
        indegree = [0] * len(self.components)
        outs: list[list[int]] = [[] for _ in self.components]
        for a, b in self.arcs:
            outs[a].append(b)
            indegree[b] += 1
        ready = [i for i, d in enumerate(indegree) if not d]
        freed = 0
        while ready:
            freed += 1
            for b in outs[ready.pop()]:
                indegree[b] -= 1
                if not indegree[b]:
                    ready.append(b)
        return freed == len(self.components)


def condensation(graph: DefinitionGraph, mode: str = "optimistic") -> Condensation:
    """Components collapsed to single nodes; arcs lifted without duplicates
    or self-loops. Acyclic by construction (and testably so)."""
    return graph._memo("condensation", mode, _condense)


def _condense(graph: DefinitionGraph, mode: str) -> Condensation:
    comps = graph._memo("components", mode, _tarjan)
    where = {node: i for i, comp in enumerate(comps) for node in comp}
    lifted: dict[tuple[int, int], None] = {}
    adj = graph._memo("edges", mode, _adjacency)
    for src, outs in adj.items():
        for dst in outs:
            a, b = where[src], where[dst]
            if a != b:
                lifted.setdefault((a, b), None)
    return Condensation(tuple(tuple(c) for c in comps), tuple(sorted(lifted)))


class PrimitiveReport(namedtuple("PrimitiveReport",
                                  "candidates undefined_leaves")):
    """The candidate components, each a tuple of SenseKeys, and the
    External leaves."""

    __slots__ = ()

    def to_tsv(self) -> str:
        """A line per candidate component, then per undefined leaf."""
        lines = ["candidate\t" + "\t".join(n.render() for n in comp)
                 for comp in self.candidates]
        lines += [f"undefined-leaf\t{leaf.render()}"
                  for leaf in self.undefined_leaves]
        return "\n".join(lines) + "\n"


def primitive_candidates(graph: DefinitionGraph) -> PrimitiveReport:
    """Terminal components of the resolved-only condensation whose members
    are internal verb senses; external nodes reported as undefined leaves."""
    cond = condensation(graph, "resolved-only")
    has_out = {a for a, _ in cond.arcs}
    candidates = []
    for i, comp in enumerate(cond.components):
        if i in has_out:
            continue
        if all(n.pos is not None and n.pos.is_verb for n in comp):
            candidates.append(comp)
    leaves = tuple(sorted((n for n in graph.nodes if n.pos is None),
                          key=_sort_key))
    return PrimitiveReport(tuple(candidates), leaves)


# ---------------------------------------------------------------------------
# exports

def to_dot(graph: DefinitionGraph) -> str:
    """DOT export: unresolved bundles dashed, resolved arcs solid, external
    nodes box-shaped."""
    lines = ["digraph definitions {"]
    for node in sorted(graph.nodes, key=_sort_key):
        shape = "box" if node.pos is None else "ellipse"
        lines.append(f"  {dot_quote(node.render())} [shape={shape}];")
    # one line per (source, target, style) with its least label, sorted
    edges: dict[tuple[str, str, str], str] = {}
    for arc in graph.arcs:
        style = "solid" if arc.resolved else "dashed"
        label = arc.genus_word + (" (not)" if arc.negated else "")
        for t in arc.targets:
            sig = (arc.source.render(), t.render(), style)
            edges[sig] = min(label, edges.get(sig, label))
    for (source, target, style), label in sorted(edges.items()):
        lines.append(f"  {dot_quote(source)} -> {dot_quote(target)}"
                     f" [style={style}, label={dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def components_tsv(components: list[list[Node]]) -> str:
    """One component per line, members tab-separated."""
    rows = ["\t".join(n.render() for n in comp) for comp in components]
    return "\n".join(rows) + ("\n" if rows else "")
