"""Sense selection networks: an ordered question tree per headword.

Branch order: part of speech, transitivity, specified objects, adjective
complement, usage conditions, then frame-difference questions generated by
first differences over canonical frame positions, recursively. Usage-style
questions carry necessary-condition semantics: absence prunes, presence
does not confirm.

Compiled networks are immutable and shareable; traversal keeps all state
in the traversal record, which holds the senses reached and the questions
left open, nothing else. An unknown answer retains every branch and
records the question.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, partial
from typing import NamedTuple, Optional

from .frames import Frame, Slot, render_condition, slot_order_key
from .lexicon import (
    Lexicon,
    PartOfSpeech,
    SenseKey,
    _VB,
    _VI,
    _VT,
    _label_ancestors,
    _label_parts,
    dot_quote,
    lower_alternatives,
    parse_sense,
)


class CompileError(ValueError):
    pass


class Terminal(NamedTuple):
    sense: SenseKey
    frame: Frame


class Nonterminal(NamedTuple):
    """Exhausted, indistinguishable group collapsed to its parent sense."""

    sense: SenseKey
    members: tuple[SenseKey, ...]
    frame: Optional[Frame] = None


class _QuestionFields(NamedTuple):
    kind: str                                   # POS | TRANSITIVITY | OBJ-IS |
                                                # OBJ-SAT | ADJ-COMPLEMENT |
                                                # USAGE | FRAME-DIFF
    payload: tuple                              # kind-specific, renderable
    branches: tuple[tuple[str, "Node"], ...]
    retain_all_on_unknown: bool = True


class Question(_QuestionFields):
    """A network question.  Its ``qid`` is formatted once, and a FRAME-DIFF
    question holds, once computed, what the sense parser tests a sentence
    against (``_probe``)."""

    @cached_property
    def qid(self) -> str:
        if self.kind == "FRAME-DIFF":
            return f"FRAME-DIFF {'.'.join(self.payload[0])}"
        if self.kind == "USAGE":
            return f"USAGE used with {'|'.join(self.payload)}"
        if self.kind in ("OBJ-IS", "OBJ-SAT", "ADJ-COMPLEMENT"):
            return f"{self.kind} {' '.join(str(p) for p in self.payload)}".strip()
        return self.kind

    def alternatives(self) -> dict[str, object]:
        """FRAME-DIFF only: branch answer -> canonical value."""
        if self.kind != "FRAME-DIFF":
            return {}
        return dict(self.payload[1])

    @cached_property
    def _probe(self) -> tuple[str, str, tuple[tuple[str, object], ...]]:
        """FRAME-DIFF only: (probe, answer when no fact matches, (answer,
        fact) pairs).  By the path asked about, a fact is the ``predicate``
        family (every answer, sorted), the ``conditions`` count and USED-WITH
        particles, the lowercased value of a ``subject`` (SUBJ) or
        ``filler``, the lowercased ``respect`` alternatives, for a SUBJ
        ``bind`` only the FROM-STATE answer, else (``none``) nothing."""
        path, alts = self.payload[0], self.alternatives()
        other = "other" if "other" in alts else "unknown"
        tuples = [(a, v if isinstance(v, tuple) else (v,))
                  for a, v in alts.items()]
        if path == ("predicate",):
            return "predicate", other, tuple(
                (a, alts[a][0] if isinstance(alts[a], tuple) and alts[a]
                 else str(alts[a]).removesuffix(" (provisional)"))
                for a in sorted(alts))
        if path == ("conditions",):
            return "conditions", other, tuple((a, (len(v), tuple(
                tuple(str(c).split(None, 1)[1].split("|"))
                for c in v if str(c).startswith("USED-WITH"))))
                for a, v in tuples)
        last = path[-1]
        if last == "bind" and "SUBJ" in path:
            return "bind", other, (
                (("FROM-STATE", None),) if "FROM-STATE" in alts else ())
        if last == "filler":
            return ("subject" if len(path) > 1 and path[1] == "SUBJ"
                    else "filler"), other, tuple(
                        (a, str(v).lower()) for a, v in alts.items()
                        if a != "other")
        if last == "restrictions" and len(path) > 1 and path[-2] == "RESPECT":
            return "respect", other, tuple(
                (a, lower_alternatives(map(str, v)))
                for a, v in tuples if a != "other")
        return "none", other, ()


Node = Terminal | Nonterminal | Question


class SSN(NamedTuple):
    headword: str
    senses: tuple[SenseKey, ...]
    root: Node

    def questions(self) -> list[Question]:
        """Every question of the network, depth first, parents first."""
        out: list[Question] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Question):
                out.append(node)
                stack.extend(child for _, child in reversed(node.branches))
        return out

    def traverse(self, oracle: Oracle) -> TraverseResult:
        """Deterministic walk. A concrete answer follows its branch;
        anything else retains all branches (union) and records the
        question.  The result holds the senses reached and the questions
        left open.  A method, so that the parser reaches it through the
        network it is given, without importing this module."""
        senses: set[SenseKey] = set()
        open_questions: list[str] = []
        terminal = _walk(self.root, oracle, senses, open_questions)
        # in the order of the network's senses, sorted when it was compiled
        return TraverseResult(tuple(filter(senses.__contains__, self.senses)),
                              terminal and len(senses) == 1,
                              tuple(open_questions))


class TraverseResult(NamedTuple):
    senses: tuple[SenseKey, ...]
    terminal: bool
    open_questions: tuple[str, ...]


Oracle = dict | Callable[[Question], str]


# ---------------------------------------------------------------------------
# canonical positions and their first differences

_TRANSITIVITY = {PartOfSpeech.VI: "intransitive", PartOfSpeech.VT: "transitive",
                 PartOfSpeech.VB: "both"}


def canonical_paths(frame: Frame) -> dict[tuple, tuple[tuple[str, ...], object]]:
    """Flatten to {sortable position: (display path, value)}; alignment-proof
    across frames with different slot inventories."""
    out: dict[tuple, tuple[tuple[str, ...], object]] = {
        ((0, "pos"),): (("pos",), frame.pos.value),
        ((1, "transitivity"),): (("transitivity",),
                                 _TRANSITIVITY.get(frame.pos, "")),
        ((2, "predicate"),): (("predicate",),
                              (frame.predicate,
                               "provisional" if frame.provisional else "fixed")),
        ((3, "conditions"),): (("conditions",),
                               tuple(sorted(render_condition(c)
                                            for c in frame.conditions))),
    }

    for slot in frame.slots:
        _slot_paths(out, slot, ((4, "slots"),), ("slots",))
    return out


def _slot_paths(out: dict, slot: Slot, sort_prefix: tuple,
                display_prefix: tuple[str, ...]) -> None:
    """Add the canonical positions of ``slot`` and its children to ``out``."""
    name, restrictions = slot.name, slot.restrictions
    base_sort = sort_prefix + (slot_order_key(name),)
    base_disp = display_prefix + (name,)
    out[base_sort + ((0, "case"),)] = (base_disp + ("case",),
                                       " v ".join(slot.case))
    out[base_sort + ((1, "bind"),)] = (base_disp + ("bind",), slot.bind or "")
    out[base_sort + ((2, "filler"),)] = (base_disp + ("filler",),
                                         slot.render_filler())
    out[base_sort + ((3, "restrictions"),)] = (
        base_disp + ("restrictions",),
        tuple(sorted(restrictions)) if len(restrictions) > 1 else restrictions)
    for child in slot.children:
        _slot_paths(out, child, base_sort + ((4, "children"),), base_disp)


# the values of a canonical position that read as nothing: absent, or an
# empty string or tuple
EMPTY_VALUES = (None, "", ())


def flat_group(frames: dict[SenseKey, Frame]) -> tuple[dict, list]:
    """Each frame's ``canonical_paths`` and the sorted union of their
    positions, as ``first_diff`` reads them."""
    flats = {k: canonical_paths(f) for k, f in frames.items()}
    return flats, sorted(set().union(*flats.values()))


def first_diff(keys: list[SenseKey], flats: dict, positions: list,
               start: int = 0):
    """The first of ``positions[start:]`` at which any two of ``keys``
    differ: (its index, display path, {sense key: value-at-position}), or
    None.  An absent value (None) and an empty one ("" or ()) are no
    difference, so a position none of the keys has is none either, and
    ``flats`` and ``positions`` may cover more keys."""
    flat_list = [flats[key] for key in keys]
    for index in range(start, len(positions)):
        pos = positions[index]
        entries = [flat.get(pos) for flat in flat_list]
        if entries.count(entries[0]) == len(entries):
            continue
        # every canonical value is a str or a tuple of str
        distinct = {None if e is None or e[1] in EMPTY_VALUES else e[1]
                    for e in entries}
        if len(distinct) > 1:
            display = next(e[0] for e in entries if e is not None)
            return index, display, {key: None if e is None else e[1]
                                    for key, e in zip(keys, entries)}
    return None


# ---------------------------------------------------------------------------
# compilation

def _render_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        if len(value) == 2 and value[1] in ("fixed", "provisional"):
            return value[0] if value[1] == "fixed" else f"{value[0]} (provisional)"
        return "; ".join(str(v) for v in value)
    return str(value)


def _pos_tag(pos: PartOfSpeech) -> str:
    return "v" if pos.is_verb else pos.value


def compile_ssn(headword: str, lexicon: Lexicon,
                frames: dict[SenseKey, Frame]) -> SSN:
    """Compile the network for one headword over all its homographs, its
    sense keys in the lexicon's order (``Lexicon._by_headword``).  The
    frames of the network are flattened once, when the first group of
    senses needs their first difference."""
    keys = lexicon._by_headword.get(headword)
    if not keys:
        raise CompileError(f"no senses for {headword!r}")
    for k in keys:
        if k not in frames:
            raise CompileError(f"no frame for {k.render()}")
    frames = {k: frames[k] for k in keys}  # the network's own
    # one sense: nothing to ask
    stages = _stage_questions(keys, lexicon._by_key) if len(keys) > 1 else ()
    # a one-sense group's subtree: its terminal
    built = {(k,): Terminal(k, frames[k]) for k in keys}
    return SSN(headword, tuple(keys), _build(keys, 0, stages, frames, [], built))


def _build(group: list[SenseKey], stage_idx: int, stages, frames,
           flat: list, built: dict) -> Node:
    """The subtree that tells ``group`` apart, asking the stage questions
    from ``stage_idx`` on, then frame differences.  ``frames`` are those
    of the network; ``flat`` is empty until a group first gets to frame
    differences, then it holds their ``flat_group``, whose sorted
    positions serve every group (``first_diff`` skips a position a group
    lacks).  ``built`` holds each subtree made: a stage question's under
    its group and the index of the stage after it, one of frame
    differences (or a terminal) under the group alone.  A group the
    questions lead to again (a "present" answer keeps them all) shares
    it, so the tree's subtrees are shared objects."""
    if len(group) == 1:
        return built[tuple(group)]
    while stage_idx < len(stages):
        kind, payload, partition = stages[stage_idx]
        stage_idx += 1
        parts = partition(group)
        parts = {a: sub for a, sub in parts.items() if sub}
        outcomes = {tuple(sub) for sub in parts.values()}
        if len(parts) < 2 or len(outcomes) < 2:
            continue
        node = built.get((tuple(group), stage_idx))
        if node is None:
            node = built[tuple(group), stage_idx] = Question(
                kind, payload, tuple(
                    (answer, _build(sub, stage_idx, stages, frames, flat,
                                    built))
                    for answer, sub in sorted(parts.items())))
        return node
    if not flat:
        flat += flat_group(frames)
    return _frame_diff_tree(group, 0, *flat, frames, built)


def _stage_questions(keys, senses_by_key):
    """The syntactic/usage question specs, in pipeline order."""
    stages = []

    def pos_partition(group):
        parts: dict[str, list[SenseKey]] = {}
        for k in group:
            parts.setdefault(_pos_tag(k.pos), []).append(k)
        return parts

    stages.append(("POS", (), pos_partition))

    def trans_partition(group):
        vi = [k for k in group if k.pos in (_VI, _VB)]
        vt = [k for k in group if k.pos in (_VT, _VB)]
        return {"vi": vi, "vt": vt}

    stages.append(("TRANSITIVITY", (), trans_partition))

    # specified objects: necessary conditions on the object word
    spec_objects: dict[str, list[SenseKey]] = {}
    for k in keys:
        for rec in senses_by_key[k]:
            if rec.is_synonym_line:
                continue
            parsed = parse_sense(rec)
            if parsed.specified_object:
                spec_objects.setdefault(parsed.specified_object, []).append(k)

    for word in sorted(spec_objects):
        kind = "OBJ-IS" if len(word.split()) == 1 else "OBJ-SAT"
        stages.append((kind, (word,), partial(
            _necessary, ("yes", "no"), set(spec_objects[word]))))

    # adjective complement: definitions ending with "to be"
    adj_keys = {k for k in keys
                for rec in senses_by_key[k]
                if rec.raw_definition.rstrip(" .").endswith("to be")}
    if adj_keys:
        stages.append(("ADJ-COMPLEMENT", (), partial(
            _necessary, ("present", "absent"), adj_keys)))

    # usage conditions from particle notes; absence prunes
    particle_sets: dict[tuple[str, ...], set[SenseKey]] = {}
    for k in keys:
        for rec in senses_by_key[k]:
            particles = rec.usage_particles
            if particles:
                particle_sets.setdefault(tuple(sorted(particles)), set()).add(k)

    for particles in sorted(particle_sets):
        stages.append(("USAGE", particles, partial(
            _necessary, ("present", "absent"), particle_sets[particles])))

    return stages


def _necessary(answers: tuple[str, str], requiring, group):
    """The partition by a necessary condition: the first answer keeps every
    sense of ``group``, the second those not ``requiring`` it."""
    return {answers[0]: list(group),
            answers[1]: [k for k in group if k not in requiring]}


def _frame_diff_tree(group: list[SenseKey], start: int, flats, positions,
                     frames, built: dict) -> Node:
    """Frame-difference questions that tell ``group`` apart.  ``flats``
    and ``positions`` are those of the whole network's frames, flattened
    once; ``group`` agrees on ``positions[:start]``, as the first
    difference of a larger group was at ``start``, so the subtree depends
    on ``group`` alone and ``built`` holds it under ``tuple(group)``."""
    node = built.get(tuple(group))
    if node is not None:
        return node
    diff = first_diff(group, flats, positions, start)
    if diff is None:
        node = built[tuple(group)] = _collapse(group, frames)
        return node
    index, path, values = diff
    concrete: dict[str, list[SenseKey]] = {}
    empties: list[SenseKey] = []
    for k in group:
        v = values.get(k)
        if v in EMPTY_VALUES:
            empties.append(k)
        else:
            concrete.setdefault(_render_value(v), []).append(k)
    branches: list[tuple[str, Node]] = []
    alts: list[tuple[str, object]] = []
    for answer in sorted(concrete):
        sub = concrete[answer]
        branches.append((answer, _frame_diff_tree(
            sub, index, flats, positions, frames, built)))
        alts.append((answer, values[sub[0]]))
    if empties:
        branches.append(("other", _frame_diff_tree(
            empties, index, flats, positions, frames, built)))
        alts.append(("other", ""))
    node = built[tuple(group)] = Question(
        "FRAME-DIFF", (tuple(path), tuple(alts)), tuple(branches))
    return node


def _collapse(group, frames) -> Node:
    """Identical canonical frames: collapse to a label-parent nonterminal
    (a sense of the network, so ``frames`` holds it), else the
    distinctness requirement is violated."""
    common = set.intersection(*({k.label, *_label_ancestors(k.label)}
                                for k in group))
    base = group[0]
    for label in sorted(common, key=_label_parts, reverse=True):
        parent_key = SenseKey(base.headword, base.pos, base.homograph, label)
        if parent_key in frames:
            return Nonterminal(parent_key, tuple(group), frames[parent_key])
    a, b = group[0], group[1]
    raise CompileError(
        f"duplicate canonical frames among sibling senses: "
        f"{a.render()} and {b.render()}")


# ---------------------------------------------------------------------------
# traversal

traverse = SSN.traverse


def _walk(node: Node, oracle: Oracle, senses: set[SenseKey],
          open_questions: list[str]) -> bool:
    """Add the senses ``traverse`` reaches from ``node`` to ``senses``, and
    say whether it reached a terminal; each question left open is noted
    once."""
    if not isinstance(node, Question):
        senses.add(node.sense)
        return isinstance(node, Terminal)
    answer = oracle(node) if callable(oracle) else oracle.get(node.qid, "unknown")
    if not isinstance(answer, str):
        answer = "unknown"
    for branch, child in reversed(node.branches):  # as a dict of them would
        if branch == answer:
            return _walk(child, oracle, senses, open_questions)
    qid = node.qid
    if qid not in open_questions:
        open_questions.append(qid)
    for _, child in node.branches:
        _walk(child, oracle, senses, open_questions)
    return False


# ---------------------------------------------------------------------------
# exports

def to_text(ssn: SSN) -> str:
    lines: list[str] = [f"ssn for {ssn.headword} ({len(ssn.senses)} senses)"]
    stack: list[tuple[Node, int, str]] = [(ssn.root, 1, "")]
    while stack:
        node, depth, label = stack.pop()
        pad = "  " * depth
        if isinstance(node, Terminal):
            lines.append(f"{pad}{label}-> sense {node.sense.render()}")
        elif isinstance(node, Nonterminal):
            lines.append(f"{pad}{label}-> nonterminal sense "
                         f"{node.sense.render()} "
                         f"({len(node.members)} members)")
        else:
            lines.append(f"{pad}{label}? {node.qid}")
            stack.extend((child, depth + 1, f"[{answer}] ")
                         for answer, child in reversed(node.branches))
    return "\n".join(lines) + "\n"


def to_dot(ssn: SSN) -> str:
    lines = ["digraph ssn {"]
    _dot_node(ssn.root, lines, [0])
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_node(node: Node, lines: list[str], counter: list[int]) -> str:
    """Append the DOT lines of ``node``'s subtree, numbering its nodes in
    preorder, and return the node's name."""
    counter[0] += 1
    name = f"n{counter[0]}"
    if isinstance(node, Terminal):
        lines.append(f"  {name} [shape=box, "
                     f"label={dot_quote(node.sense.render())}];")
        return name
    if isinstance(node, Nonterminal):
        lines.append(f"  {name} [shape=box, style=dashed, label="
                     f"{dot_quote(node.sense.render() + ' (nonterminal)')}];")
        return name
    lines.append(f"  {name} [shape=diamond, label={dot_quote(node.qid)}];")
    for answer, child in node.branches:
        cname = _dot_node(child, lines, counter)
        lines.append(f"  {name} -> {cname} [label={dot_quote(answer)}];")
    return name


class NetworkCache:
    """The CLI's networks, compiled per headword on demand: an
    under-resolved lexicon may lack distinct representations for words
    the invocation never asks about."""

    def __init__(self, lexicon: Lexicon, frames):
        self._lexicon = lexicon
        self._frames = frames
        self._nets: dict = {}

    def __contains__(self, headword: str) -> bool:
        return self._lexicon.has_headword(headword)

    def __getitem__(self, headword: str):
        if headword not in self._nets:
            if headword not in self:
                raise KeyError(headword)
            self._nets[headword] = compile_ssn(headword, self._lexicon,
                                               self._frames)
        return self._nets[headword]


def build_all_ssns(lexicon: Lexicon,
                   frames: dict[SenseKey, Frame]) -> dict[str, SSN]:
    """One network per headword of the lexicon, in its headword order."""
    return {hw: compile_ssn(hw, lexicon, frames)
            for hw in lexicon._by_headword}
