"""Sense selection networks: an ordered question tree per headword.

Branch order: part of speech, transitivity, specified objects, adjective
complement, usage conditions, then frame-difference questions, each at the
first canonical frame position where the senses left differ; a subgroup
is told apart from where its parent split on. Usage-style questions carry
necessary-condition semantics: absence prunes, presence does not confirm.
Compiling, exporting and walking a network keep their own stacks, so no
depth of a network is a depth of recursion.

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
        out = []
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
        left open, each once, in the order a depth-first walk first meets
        it.  A method, so that the parser reaches it through the network
        it is given, without importing this module."""
        senses, opened, noted = set(), [], set()
        stack, node = [], self.root  # (answer, node) pairs, as branches are
        while True:
            while isinstance(node, Question):
                answer = (oracle(node) if callable(oracle)
                          else oracle.get(node.qid, "unknown"))
                if not isinstance(answer, str):
                    answer = "unknown"
                for branch, child in reversed(node.branches):  # as a dict
                    if branch == answer:                        # would
                        break
                else:  # every branch, the first one (``child``) next
                    qid = node.qid
                    if qid not in noted:
                        noted.add(qid)
                        opened.append(qid)
                    stack += node.branches[:0:-1]
                node = child
            senses.add(node.sense)
            if not stack:
                break
            node = stack.pop()[1]
        # in the order of the network's senses, sorted when it was compiled;
        # with no question open, the walk followed one path to one node
        return TraverseResult(tuple(filter(senses.__contains__, self.senses)),
                              not opened and isinstance(node, Terminal),
                              tuple(opened))


class TraverseResult(NamedTuple):
    senses: tuple[SenseKey, ...]
    terminal: bool
    open_questions: tuple[str, ...]


Oracle = dict | Callable[[Question], str]


# ---------------------------------------------------------------------------
# canonical positions
#
# A frame's positions, in the order in which a first difference is sought:
# its pos, transitivity, predicate and conditions, then its slots in slot
# order, each slot's case, bind, filler and restrictions before its
# children.  The frames of a network are walked together over a trie of
# their slot paths (Knuth, TAOCP vol. 3, 6.3), built one level at a time
# where a walk first needs it, and no frame is flattened.  The walk reads
# a frame as ``frames._canonical`` would put it: conditions sorted, slots
# in slot order, the last slot of a name.  A trie node is [its holders
# ({sense: slot} in the network's order), its children or None, its
# display path, {field: the holders' concrete values ({sense: value})}];
# the root holds the frames themselves, and its display path is empty.

_TRANSITIVITY = {PartOfSpeech.VI: "intransitive", PartOfSpeech.VT: "transitive",
                 PartOfSpeech.VB: "both"}

# the fields of a slot, then of a frame: their display names and values
_FIELDS = (("case", "bind", "filler", "restrictions"),
           ("pos", "transitivity", "predicate", "conditions"))
_VALUES = (
    (lambda s: " v ".join(s.case), lambda s: s.bind or "", Slot.render_filler,
     lambda s: tuple(sorted(s.restrictions))),
    (lambda f: f.pos.value, lambda f: _TRANSITIVITY.get(f.pos, ""),
     lambda f: (f.predicate, "provisional" if f.provisional else "fixed"),
     lambda f: tuple(sorted(map(render_condition, f.conditions)))))


def _difference(where, group, size, pending, node, start):
    """The first position at which the ``size`` senses of ``group`` that
    ``where`` still maps to it differ, from field ``start`` of trie node
    ``node`` on, then on the nodes ``pending`` (a linked stack, (node,
    rest) or ()): (the nodes still pending, the node, the field, [(sense,
    value)] of the senses with a concrete value there), else None.  A node
    that no sense holds, or whose slots are one object (or equal) for
    every sense, is skipped with its subtree, so only the slots the senses
    do not share are walked."""
    while True:
        holders, top = node[0], not node[2]
        held = [k for k in holders if where[k] is group]
        slots = [holders[k] for k in held]
        if held and slots.count(slots[0]) < size:  # fewer, or not one slot
            if len(held) < size:  # -1: the senses without the slot
                held.append(-1)
            for field in range(start, 4):
                values = node[3].get(field)
                if values is None:  # every holder's concrete value
                    values = node[3][field] = {
                        k: v for k, x in holders.items()
                        if (v := _VALUES[top][field](x))}  # not "" or ()
                # the distinct values, None for a sense without one
                if len(set(map(values.get, held))) > 1:
                    return pending, node, field, [(k, values[k]) for k in held
                                                  if k in values]
            if node[1] is None:  # its children: every holder's, by name
                by_name = {}  # the last slot of a name
                for k, x in holders.items():
                    for slot in x.slots if top else x.children:
                        by_name.setdefault(slot.name, {})[k] = slot
                node[1] = [[by_name[name], None,
                            (node[2] or ("slots",)) + (name,), {}]
                           for name in sorted(by_name, key=slot_order_key)]
            for child in reversed(node[1]):
                pending = child, pending
        if not pending:
            return None
        (node, pending), start = pending, 0


# ---------------------------------------------------------------------------
# compilation

def _render_value(value: object) -> str:
    if isinstance(value, tuple):
        if len(value) == 2 and value[1] in ("fixed", "provisional"):
            return value[0] if value[1] == "fixed" else f"{value[0]} (provisional)"
        return "; ".join(value)
    return value


def compile_ssn(headword: str, lexicon: Lexicon,
                frames: dict[SenseKey, Frame]) -> SSN:
    """Compile the network for one headword over all its homographs, its
    sense keys in the lexicon's order (``Lexicon._by_headword``)."""
    keys = lexicon._by_headword.get(headword)
    if not keys:
        raise CompileError(f"no senses for {headword!r}")
    for k in keys:
        if k not in frames:
            raise CompileError(f"no frame for {k.render()}")
    return SSN(headword, tuple(keys), Terminal(keys[0], frames[keys[0]])
               if len(keys) == 1  # nothing to ask
               else _build(keys, _stage_questions(keys, lexicon._by_key),
                           {k: frames[k] for k in keys}))  # the network's own


def _build(keys, stages, frames) -> Node:
    """The tree that tells ``keys`` apart: the stage questions, then
    frame differences, built from explicit stacks, so that no depth of
    the tree is a depth of recursion.  A group is a tuple of senses
    numbered by their place in ``keys``.

    ``built`` holds each subtree made, so a group the questions lead to
    again (a "present" answer keeps them all) shares it: a stage
    question's under its stage index and group, one of frame differences
    (or a terminal) under the group alone.  First the stage questions are
    planned depth first: ``key_of`` maps a group and a stage index to the
    key of its subtree, and ``questions`` holds the kind, payload and
    (answer, subgroup) pairs of each stage question.  The groups that no
    stage question splits are then told apart by frame differences, and
    last the stage questions are made, the last stages' first, since a
    question leads only to later ones."""
    built = {(i,): Terminal(k, frames[k]) for i, k in enumerate(keys)}
    key_of, questions, left = {}, {}, {}  # left: what no stage splits
    everyone = tuple(range(len(keys)))
    todo = [(everyone, 0)]
    while todo:
        task = group, stage_idx = todo.pop()
        if task in key_of:
            continue
        key_of[task] = group
        while stage_idx < len(stages):
            kind, payload, partition = stages[stage_idx]
            stage_idx += 1
            parts = {a: tuple(sub) for a, sub in partition(group).items() if sub}
            if len(parts) > 1 and len(set(parts.values())) > 1:
                parts = sorted(parts.items())
                key_of[task] = stage_idx, group
                questions[stage_idx, group] = kind, payload, parts
                todo += [(sub, stage_idx) for _, sub in reversed(parts)
                         if len(sub) > 1]
                break
        else:
            left[group] = None
    if left:
        _frame_diff_trees(keys, frames, left, built)
    for key in sorted(questions, reverse=True):
        kind, payload, parts = questions[key]
        built[key] = Question(kind, payload, tuple(
            (answer, built[key_of.get((sub, key[0]), sub)])
            for answer, sub in parts))
    return built[key_of[everyone, 0]]


def _frame_diff_trees(keys, frames, left, built) -> None:
    """Put into ``built`` the frame-difference subtree of each group in
    ``left``, the groups that no stage question splits, in the order in
    which they were first reached.  A group's questions are asked depth
    first from a stack, and its nodes made in the reverse order, each
    subtree before its parent.

    A task is (size, group, pending, trie node, field): the ``size`` senses
    of ``group`` that ``where`` still maps to it, which agree up to that
    field of that node (field -1 before the first).  A subgroup resumes
    where its parent split, and a split maps anew only the senses with a
    value there: the others keep the parent's group.  Groups below two
    different groups left are one group only if each of their senses is
    in both, so only such a group is kept in ``built`` (under its senses),
    besides the groups left and the terminals."""
    seen, twice = set(), set()
    for group in left:
        twice.update(seen.intersection(group))
        seen.update(group)
    root = [dict(enumerate(frames.values())), None, (), {}]
    where = [None] * len(keys)
    for entry in left:
        for i in entry:
            where[i] = entry
        # each group's key and node, or its question's payload, in preorder
        plan = []
        todo = [(len(entry), entry, (), root, -1)]
        while todo:
            size, group, pending, tnode, field = todo.pop()
            # its senses, named only for a key: a terminal's, one that may
            # be met again, or a group's that the stage questions leave
            members = (tuple([i for i in group if where[i] is group])
                       if size == 1 or twice else group)
            key = (members if not plan or size == 1
                   or twice.issuperset(members) else None)
            node = built.get(key)
            if node is None:
                diff = _difference(where, group, size, pending, tnode,
                                   field + 1)
                if diff is None:
                    node = _collapse([keys[i] for i in group
                                      if where[i] is group], frames)
                else:  # each concrete answer's senses a group of their own
                    pending, tnode, field, found = diff
                    parts = {}
                    for i, v in found:
                        parts.setdefault(_render_value(v), []).append((i, v))
                    subs, alts = [], []
                    for answer, pairs in sorted(parts.items()):
                        sub = tuple([i for i, _ in pairs])
                        for i in sub:
                            where[i] = sub
                        subs.append((len(sub), sub))
                        alts.append((answer, pairs[0][1]))
                    if len(found) < size:
                        subs.append((size - len(found), group))
                        alts.append(("other", ""))
                    node = (tnode[2] + (_FIELDS[not tnode[2]][field],),
                            tuple(alts))
                    todo += [(*sub, pending, tnode, field)
                             for sub in reversed(subs)]
            plan.append((key, node))
        # made in reverse preorder, so a question finds its subtrees on
        # ``made``, its first branch's on top
        made = []
        for key, node in reversed(plan):
            if type(node) is tuple:  # a question's payload
                node = Question("FRAME-DIFF", node, tuple(
                    (answer, made.pop()) for answer, _ in node[1]))
            if key:
                built[key] = node
            made.append(node)


def _pos_parts(pos, group):
    parts = {}
    for i in group:
        parts.setdefault("v" if pos[i].is_verb else pos[i].value, []).append(i)
    return parts


def _transitivity_parts(pos, group):
    return {"vi": [i for i in group if pos[i] in (_VI, _VB)],
            "vt": [i for i in group if pos[i] in (_VT, _VB)]}


def _stage_questions(keys, senses_by_key):
    """The syntactic/usage question specs, in pipeline order, each
    partitioning a group of senses numbered by their place in ``keys``; no
    POS or TRANSITIVITY question where every sense has one part of speech,
    as neither could tell any of them apart."""
    pos = [k.pos for k in keys]
    stages = [("POS", (), partial(_pos_parts, pos)),
              ("TRANSITIVITY", (), partial(_transitivity_parts, pos))
              ] if len(set(pos)) > 1 else []

    # specified objects: necessary conditions on the object word
    spec_objects = {}
    for i, k in enumerate(keys):
        for rec in senses_by_key[k]:
            if word := (not rec.is_synonym_line
                        and parse_sense(rec).specified_object):
                spec_objects.setdefault(word, []).append(i)

    for word in sorted(spec_objects):
        stages.append(("OBJ-IS" if len(word.split()) == 1 else "OBJ-SAT",
                       (word,), partial(_necessary, ("yes", "no"),
                                        set(spec_objects[word]))))

    # adjective complement: definitions ending with "to be"
    adj_keys = {i for i, k in enumerate(keys)
                for rec in senses_by_key[k]
                if rec.raw_definition.rstrip(" .").endswith("to be")}
    if adj_keys:
        stages.append(("ADJ-COMPLEMENT", (), partial(
            _necessary, ("present", "absent"), adj_keys)))

    # usage conditions from particle notes; absence prunes
    particle_sets = {}
    for i, k in enumerate(keys):
        for rec in senses_by_key[k]:
            if particles := rec.usage_particles:
                particle_sets.setdefault(tuple(sorted(particles)), set()).add(i)

    for particles in sorted(particle_sets):
        stages.append(("USAGE", particles, partial(
            _necessary, ("present", "absent"), particle_sets[particles])))

    return stages


def _necessary(answers: tuple[str, str], requiring, group):
    """The partition by a necessary condition: the first answer keeps every
    sense of ``group``, the second those not ``requiring`` it."""
    return {answers[0]: group,
            answers[1]: [k for k in group if k not in requiring]}


def _collapse(group, frames) -> Node:
    """Identical canonical frames: collapse to a label-parent nonterminal
    (a sense of the network, so ``frames`` holds it), else the
    distinctness requirement is violated."""
    common = set.intersection(*({k.label, *_label_ancestors(k.label)}
                                for k in group))
    for label in sorted(common, key=_label_parts, reverse=True):
        parent_key = group[0]._replace(label=label)
        if parent_key in frames:
            return Nonterminal(parent_key, tuple(group), frames[parent_key])
    raise CompileError(
        f"duplicate canonical frames among sibling senses: "
        f"{group[0].render()} and {group[1].render()}")


# ---------------------------------------------------------------------------
# traversal

traverse = SSN.traverse


# ---------------------------------------------------------------------------
# exports

def to_text(ssn: SSN) -> str:
    lines = [f"ssn for {ssn.headword} ({len(ssn.senses)} senses)"]
    stack = [(ssn.root, "  ", "")]
    while stack:
        node, pad, label = stack.pop()
        if isinstance(node, Terminal):
            lines.append(f"{pad}{label}-> sense {node.sense.render()}")
        elif isinstance(node, Nonterminal):
            lines.append(f"{pad}{label}-> nonterminal sense "
                         f"{node.sense.render()} "
                         f"({len(node.members)} members)")
        else:
            lines.append(f"{pad}{label}? {node.qid}")
            stack.extend((child, pad + "  ", f"[{answer}] ")
                         for answer, child in reversed(node.branches))
    return "\n".join(lines) + "\n"


def to_dot(ssn: SSN) -> str:
    """The network in DOT, its nodes numbered in preorder; the line of an
    edge follows the lines of the subtree it leads to."""
    lines = ["digraph ssn {"]
    stack = [(ssn.root, "", "")]
    count = 0
    while stack:
        node, parent, answer = stack.pop()
        if isinstance(node, str):  # the line of an edge
            lines.append(node)
            continue
        count += 1
        if parent:  # after the lines of this subtree
            stack.append((f"  {parent} -> n{count} "
                          f"[label={dot_quote(answer)}];", "", ""))
        if isinstance(node, Question):
            shape, label = "diamond", node.qid
            stack += [(child, f"n{count}", a)
                      for a, child in reversed(node.branches)]
        elif isinstance(node, Terminal):
            shape, label = "box", node.sense.render()
        else:
            shape = "box, style=dashed"
            label = f"{node.sense.render()} (nonterminal)"
        lines.append(f"  n{count} [shape={shape}, label={dot_quote(label)}];")
    return "\n".join(lines) + "\n}\n"


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
