"""Sense selection networks: a question tree per headword.

A network branches on part of speech and transitivity.  Each group of
senses those leave is sieved by its necessary conditions (specified
objects, adjective complement, usage conditions) in that order: absence
prunes, presence does not confirm.  The senses that survive are then told
apart by frame-difference questions, each at the first canonical frame
position where the senses left differ; a subgroup is told apart from
where its parent split on.  Compiling, exporting and walking a network
keep their own stacks, so no depth of a network is a depth of recursion.

Compiled networks are immutable and shareable; traversal keeps all state
in the traversal record, which holds the senses reached and the questions
left open, nothing else.  An unknown answer prunes nothing: it retains
every branch and records the question.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cached_property

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


Terminal = namedtuple("Terminal", "sense")
# an exhausted, indistinguishable group collapsed to its parent sense
Nonterminal = namedtuple("Nonterminal", "sense members")


class Question(namedtuple("Question", "kind payload branches")):
    """A network question: its kind (POS, TRANSITIVITY, OBJ-IS, OBJ-SAT,
    ADJ-COMPLEMENT, USAGE or FRAME-DIFF), a kind-specific renderable
    payload, and its (answer, node) branches.  Its ``qid`` is formatted
    once, and a FRAME-DIFF question holds, once computed, what the sense
    parser tests a sentence against (``_probe``).  A necessary condition
    (OBJ-IS, OBJ-SAT, ADJ-COMPLEMENT, USAGE) leads to no node: its branches
    pair its pruning answer with the senses requiring it, then its keeping
    answer with the others, each a bit set over its ``Sieve``'s senses."""

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
        if path == ("predicate",):
            return "predicate", other, tuple(
                (a, alts[a][0]) for a in sorted(alts))
        if path == ("conditions",):  # "other" is "", no condition
            return "conditions", other, tuple((a, (len(v), tuple(
                tuple(c.split(None, 1)[1].split("|"))
                for c in v if c.startswith("USED-WITH"))))
                for a, v in alts.items())
        last = path[-1]
        if last == "bind" and "SUBJ" in path:
            return "bind", other, (
                (("FROM-STATE", None),) if "FROM-STATE" in alts else ())
        if last == "filler":
            return ("subject" if len(path) > 1 and path[1] == "SUBJ"
                    else "filler"), other, tuple(
                        (a, v.lower()) for a, v in alts.items()
                        if a != "other")
        if last == "restrictions" and len(path) > 1 and path[-2] == "RESPECT":
            return "respect", other, tuple(
                (a, lower_alternatives(v)) for a, v in alts.items()
                if a != "other")
        return "none", other, ()


class Sieve(namedtuple("Sieve", "senses conditions tree")):
    """A group of senses that no POS or TRANSITIVITY question tells apart,
    in the network's order: the necessary conditions that split it, in
    stage order, and the first-difference tree of all its senses.
    ``_sieve`` gives it, outside its fields and so outside equality, the
    network's frames (``_frames``) and the tree of each group of its senses
    made so far, under the group's bit set, -1 for all (``_trees``): a
    smaller group's is built the first time a traversal reaches it."""

    def tree_of(self, alive: int) -> "Node":
        """The first-difference tree of the senses the bit set ``alive``
        names."""
        if alive not in self._trees:
            self._trees[alive] = _tree(
                [k for i, k in enumerate(self.senses) if alive >> i & 1],
                self._frames)
        return self._trees[alive]


Node = Terminal | Nonterminal | Question | Sieve


class SSN(namedtuple("SSN", "headword senses root")):
    """A headword's network: its sense keys, sorted, and its root node."""

    __slots__ = ()

    def questions(self) -> list[Question]:
        """Every question of the network, depth first, parents first: a
        sieve's conditions, then the questions of its whole group's tree
        (those of a smaller group's tree are among them)."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Sieve):
                out += node.conditions
                stack.append(node.tree)
            elif isinstance(node, Question):
                out.append(node)
                stack.extend(child for _, child in reversed(node.branches))
        return out

    def traverse(self, oracle: Oracle) -> TraverseResult:
        """Deterministic walk. A concrete answer follows its branch;
        anything else retains all branches (union) and records the
        question.  A sieve asks its conditions in order, each where the
        senses left include some that require it and some that do not:
        the pruning answer drops those, the keeping answer none, and an
        unknown one walks on with both, pruning first; then the walk goes
        on in the tree of the senses left.  The result holds the senses
        reached and the questions left open, each once, in the order a
        depth-first walk first meets it.  A method, so that the parser
        reaches it through the network it is given, without importing
        this module."""
        ask = oracle if callable(oracle) else (
            lambda q: oracle.get(q.qid, "unknown"))
        senses, opened, noted = set(), [], set()
        # (answer, node) pairs, as branches are, and ((senses left, next
        # condition), sieve) to walk on with after an unknown condition
        stack, state, node = [], None, self.root
        while True:
            if isinstance(node, Question):
                answer = ask(node)
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
            elif type(node) is Sieve:  # cheaper for each leaf that fails it
                # the senses left, a bit set, -1 for all
                alive, start = state if type(state) is tuple else (-1, 0)
                for q in node.conditions[start:]:
                    start += 1
                    (prune, needing), (keep, others) = q.branches
                    if alive & needing and alive & others and (
                            answer := ask(q)) != keep:
                        if answer != prune:  # on with both, keeping later
                            qid = q.qid
                            if qid not in noted:
                                noted.add(qid)
                                opened.append(qid)
                            stack.append(((alive, start), node))
                        alive &= others
                state, node = None, node.tree_of(alive)
            else:
                senses.add(node.sense)
                if not stack:
                    break
                state, node = stack.pop()
        # in the order of the network's senses, sorted when it was compiled;
        # with no question open, the walk followed one path to one node
        return TraverseResult(tuple(filter(senses.__contains__, self.senses)),
                              not opened and isinstance(node, Terminal),
                              tuple(opened))


TraverseResult = namedtuple("TraverseResult", "senses terminal open_questions")


Oracle = dict | Callable[[Question], str]
traverse = SSN.traverse


# ---------------------------------------------------------------------------
# canonical positions
#
# A frame's positions, in the order in which a first difference is sought:
# its pos, transitivity, predicate and conditions, then its slots in slot
# order, each slot's case, bind, filler and restrictions before its
# children.  The frames of a network are walked together over a trie of
# their slot paths (Knuth, TAOCP vol. 3, 6.3), built one level at a time
# where a walk first needs it, and no frame is flattened.  The walk reads
# a frame in the canonical order it is built in (``frames``): conditions
# sorted, slots in slot order, one slot of a name.  A trie node is [its
# holders ({sense: slot} in the network's order), its children or None,
# its display path, {field: the holders' concrete values ({sense:
# value})}]; the root holds the frames themselves, and its display path
# is empty.

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
     lambda f: tuple(map(render_condition, f.conditions))))


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

def _render_value(field: str, value: object) -> str:
    """The answer that names ``value``, found at ``field`` (of ``_FIELDS``):
    a predicate's name, marked when provisional, else the value, a tuple's
    items joined."""
    if field == "predicate":
        name, status = value
        return name if status == "fixed" else f"{name} (provisional)"
    return "; ".join(value) if isinstance(value, tuple) else value


def compile_ssn(headword: str, lexicon: Lexicon,
                frames: dict[SenseKey, Frame]) -> SSN:
    """Compile the network for one headword over all its homographs, its
    sense keys in the lexicon's order (``Lexicon._by_headword``): a POS
    question where they have several parts of speech, TRANSITIVITY
    questions, and a sieve for each group those leave."""
    keys = lexicon._by_headword.get(headword)
    if not keys:
        raise CompileError(f"no senses for {headword!r}")
    for k in keys:
        if k not in frames:
            raise CompileError(f"no frame for {k.render()}")
    if len(keys) == 1:  # nothing to ask
        return SSN(headword, tuple(keys), Terminal(keys[0]))
    parts = {}
    for k in keys:
        parts.setdefault("v" if k.pos.is_verb else k.pos.value, []).append(k)
    branches = tuple([(answer, _transitivity(group, lexicon, frames))
                      for answer, group in sorted(parts.items())])
    return SSN(headword, tuple(keys), branches[0][1] if len(branches) == 1
               else Question("POS", (), branches))


def _transitivity(keys, lexicon, frames) -> Node:
    """A TRANSITIVITY question where it tells the senses ``keys`` apart,
    with a sieve under each answer, else their sieve."""
    vi = [k for k in keys if k.pos in (_VI, _VB)]
    vt = [k for k in keys if k.pos in (_VT, _VB)]
    if vi and vt and vi != vt:
        return Question("TRANSITIVITY", (), (
            ("vi", _sieve(vi, lexicon, frames)),
            ("vt", _sieve(vt, lexicon, frames))))
    return _sieve(keys, lexicon, frames)


def _conditions(keys, senses_by_key) -> list[Question]:
    """The necessary conditions of the senses ``keys``, in stage order:
    specified objects (OBJ-IS for one word, else OBJ-SAT) by word, the
    adjective complement of definitions ending with "to be", then the
    usage conditions of particle notes by particles, each that some of
    them require and some do not; its branches pair its pruning answer
    with the senses requiring it, its keeping answer with the others, each
    a bit set of their places in ``keys``."""
    needing = {}  # (stage, payload, kind, pruning answer, keeping answer)
    for i, k in enumerate(keys):
        for rec in senses_by_key[k]:
            word = (not rec.is_synonym_line
                    and parse_sense(rec).specified_object)
            for condition in (  # those the record names
                    word and (0, (word,), "OBJ-IS" if len(word.split()) == 1
                              else "OBJ-SAT", "no", "yes"),
                    rec.raw_definition.rstrip(" .").endswith("to be")
                    and (1, (), "ADJ-COMPLEMENT", "absent", "present"),
                    rec.usage_particles and (2, tuple(sorted(
                        rec.usage_particles)), "USAGE", "absent", "present")):
                if condition:
                    needing[condition] = needing.get(condition, 0) | 1 << i
    everyone = (1 << len(keys)) - 1
    return [Question(kind, payload, ((prune, bits), (keep, everyone ^ bits)))
            for (_, payload, kind, prune, keep), bits
            in sorted(needing.items()) if bits != everyone]


def _sieve(keys, lexicon, frames) -> Node:
    """The node of the senses ``keys``: their first-difference tree, under
    a sieve of the conditions that split them where there are such."""
    node = tree = _tree(keys, frames)
    if conditions := tuple(_conditions(keys, lexicon._by_key)):
        node = Sieve(tuple(keys), conditions, tree)
        node._frames, node._trees = frames, {-1: tree}
    return node


def _tree(keys, frames) -> Node:
    """The first-difference tree of the senses ``keys`` (``frames`` holds
    theirs and their label parents'), from explicit stacks: its questions
    are found depth first, and its nodes made in the reverse order.

    A task is (size, group, pending, trie node, field): the ``size`` senses
    of ``group`` (a tuple of places in ``keys``) that ``where`` still maps
    to it, which agree up to that field of that node (field -1 before the
    first).  A subgroup resumes where its parent split, and a split maps
    anew only the senses with a value there: the others keep the parent's
    group."""
    everyone = tuple(range(len(keys)))
    where = [everyone] * len(keys)
    root = [{i: frames[k] for i, k in enumerate(keys)}, None, (), {}]
    plan = []  # each group's node, or its question's payload, in preorder
    todo = [(len(keys), everyone, (), root, -1)]
    while todo:
        size, group, pending, tnode, field = todo.pop()
        diff = size > 1 and _difference(where, group, size, pending, tnode,
                                        field + 1)
        if not diff:  # one sense, or senses no position tells apart
            members = [keys[i] for i in group if where[i] is group]
            node = (Terminal(members[0]) if size == 1
                    else _collapse(members, frames))
        else:  # each concrete answer's senses a group of their own
            pending, tnode, field, found = diff
            name = _FIELDS[not tnode[2]][field]
            parts = {}
            for i, v in found:
                parts.setdefault(_render_value(name, v), []).append((i, v))
            subs, alts = [], []
            for answer, pairs in sorted(parts.items()):
                sub = tuple([i for i, _ in pairs])
                for i in sub:
                    where[i] = sub
                subs.append((len(sub), sub, pending, tnode, field))
                alts.append((answer, pairs[0][1]))
            if len(found) < size:
                subs.append((size - len(found), group, pending, tnode, field))
                alts.append(("other", ""))
            node = tnode[2] + (name,), tuple(alts)
            todo += reversed(subs)
        plan.append(node)
    # made in reverse preorder, so a question finds its subtrees on
    # ``made``, its first branch's on top
    made = []
    for node in reversed(plan):
        if type(node) is tuple:  # a question's payload
            node = Question("FRAME-DIFF", node, tuple(
                (answer, made.pop()) for answer, _ in node[1]))
        made.append(node)
    return made.pop()


def _collapse(group, frames) -> Node:
    """Identical canonical frames: collapse to a label-parent nonterminal
    (a sense of the network, so ``frames`` holds it), else the
    distinctness requirement is violated."""
    common = set.intersection(*({k.label, *_label_ancestors(k.label)}
                                for k in group))
    for label in sorted(common, key=_label_parts, reverse=True):
        parent_key = group[0]._replace(label=label)
        if parent_key in frames:
            return Nonterminal(parent_key, tuple(group))
    raise CompileError(
        f"duplicate canonical frames among sibling senses: "
        f"{group[0].render()} and {group[1].render()}")


# ---------------------------------------------------------------------------
# exports

def _chain(sieve):
    """The sieve as its exports show it: its conditions in order, each a
    question whose one branch, named by the senses its pruning answer
    drops, leads to the next, the last one's to the whole group's tree."""
    node = sieve.tree
    for q in reversed(sieve.conditions):
        (prune, needing), _ = q.branches
        node = q._replace(branches=((f"{prune} prunes " + ", ".join([
            k.render() for i, k in enumerate(sieve.senses)
            if needing >> i & 1]), node),))
    return node


def to_text(ssn: SSN) -> str:
    """The network as an indented tree.  A question's ``[other]`` branch,
    and the one branch of a sieve's condition (``_chain``), are printed at
    the question's own indent, so that a chain of them reads flat."""
    lines = [f"ssn for {ssn.headword} ({len(ssn.senses)} senses)"]
    stack = [(ssn.root, "  ", "")]
    while stack:
        node, pad, label = stack.pop()
        if isinstance(node, Sieve):
            node = _chain(node)
        if isinstance(node, Terminal):
            lines.append(f"{pad}{label}-> sense {node.sense.render()}")
        elif isinstance(node, Nonterminal):
            lines.append(f"{pad}{label}-> nonterminal sense "
                         f"{node.sense.render()} "
                         f"({len(node.members)} members)")
        else:
            lines.append(f"{pad}{label}? {node.qid}")
            stack.extend((child, pad if answer == "other"
                          or len(node.branches) == 1 else pad + "  ",
                          f"[{answer}] ")
                         for answer, child in reversed(node.branches))
    return "\n".join(lines) + "\n"


def to_dot(ssn: SSN) -> str:
    """The network in DOT, its nodes numbered in preorder; the line of an
    edge follows the lines of the subtree it leads to.  A sieve is shown
    as its ``_chain``."""
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
        if isinstance(node, Sieve):
            node = _chain(node)
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
