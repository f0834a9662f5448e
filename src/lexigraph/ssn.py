"""Sense selection networks: an ordered question tree per headword.

Branch order: part of speech, transitivity, specified objects, adjective
complement, usage conditions, then frame-difference questions generated by
first differences over canonical frame tuples, recursively. Usage-style
questions carry necessary-condition semantics: absence prunes, presence
does not confirm.

Compiled networks are immutable and shareable; traversal keeps all state
in the traversal record, which holds the senses reached and the questions
left open, nothing else. An unknown answer retains every branch and
records the question.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple, Optional

from .frames import EMPTY_VALUES, Frame, first_diff, flat_group
from .lexicon import (
    PartOfSpeech,
    Sense,
    SenseKey,
    _label_ancestors,
    _label_parts,
    dot_quote,
    lower_alternatives,
    parse_sense,
    usage_particles,
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


class TraverseResult(NamedTuple):
    senses: tuple[SenseKey, ...]
    terminal: bool
    open_questions: tuple[str, ...]


Oracle = dict | Callable[[Question], str]


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


def compile_ssn(headword: str,
                senses_by_key: dict[SenseKey, list[Sense]],
                frames: dict[SenseKey, Frame]) -> SSN:
    """Compile the network for one headword over all its homographs."""
    keys = sorted(senses_by_key, key=SenseKey.sort_key)
    if not keys:
        raise CompileError(f"no senses for {headword!r}")
    if any(k.headword != headword for k in keys):
        raise CompileError("all senses must share the headword")
    for k in keys:
        if k not in frames:
            raise CompileError(f"no frame for {k.render()}")
    if len(keys) == 1:  # nothing to ask
        return SSN(headword, (keys[0],), Terminal(keys[0], frames[keys[0]]))
    stages = _stage_questions(keys, senses_by_key)
    root = _build(keys, 0, stages, senses_by_key, frames)
    return SSN(headword, tuple(keys), root)


def _build(group: list[SenseKey], stage_idx: int, stages,
           senses_by_key, frames) -> Node:
    """The subtree that tells ``group`` apart, asking the stage questions
    from ``stage_idx`` on, then frame differences."""
    if len(group) == 1:
        return Terminal(group[0], frames[group[0]])
    while stage_idx < len(stages):
        kind, payload, partition = stages[stage_idx]
        stage_idx += 1
        parts = partition(group)
        parts = {a: sub for a, sub in parts.items() if sub}
        outcomes = {tuple(sub) for sub in parts.values()}
        if len(parts) < 2 or len(outcomes) < 2:
            continue
        branches = tuple((answer, _build(sub, stage_idx, stages,
                                         senses_by_key, frames))
                         for answer, sub in sorted(parts.items()))
        return Question(kind, payload, branches)
    flats, positions = flat_group({k: frames[k] for k in group})
    return _frame_diff_tree(group, 0, flats, positions, senses_by_key, frames)


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
        vi = [k for k in group if k.pos in (PartOfSpeech.VI, PartOfSpeech.VB)]
        vt = [k for k in group if k.pos in (PartOfSpeech.VT, PartOfSpeech.VB)]
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
        requiring = set(spec_objects[word])
        kind = "OBJ-IS" if len(word.split()) == 1 else "OBJ-SAT"

        def oi_partition(group, requiring=requiring):
            return {"yes": list(group),
                    "no": [k for k in group if k not in requiring]}

        stages.append((kind, (word,), oi_partition))

    # adjective complement: definitions ending with "to be"
    adj_keys = {k for k in keys
                for rec in senses_by_key[k]
                if rec.raw_definition.rstrip(" .").endswith("to be")}
    if adj_keys:
        def adj_partition(group):
            return {"present": list(group),
                    "absent": [k for k in group if k not in adj_keys]}

        stages.append(("ADJ-COMPLEMENT", (), adj_partition))

    # usage conditions from particle notes; absence prunes
    particle_sets: dict[tuple[str, ...], set[SenseKey]] = {}
    for k in keys:
        for rec in senses_by_key[k]:
            particles = usage_particles(rec.usage_note)
            if particles:
                particle_sets.setdefault(tuple(sorted(particles)), set()).add(k)

    for particles in sorted(particle_sets):
        requiring = particle_sets[particles]

        def usage_partition(group, requiring=frozenset(requiring)):
            return {"present": list(group),
                    "absent": [k for k in group if k not in requiring]}

        stages.append(("USAGE", particles, usage_partition))

    return stages


def _frame_diff_tree(group: list[SenseKey], start: int, flats, positions,
                     senses_by_key, frames) -> Node:
    """Frame-difference questions that tell ``group`` apart.  ``flats``
    and ``positions`` are those of the whole subtree's frames, flattened
    once; ``group`` agrees on ``positions[:start]``, as the first
    difference of a larger group was at ``start``."""
    if len(group) == 1:
        return Terminal(group[0], frames[group[0]])
    diff = first_diff(group, flats, positions, start)
    if diff is None:
        return _collapse(group, senses_by_key, frames)
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
            sub, index, flats, positions, senses_by_key, frames)))
        alts.append((answer, values[sub[0]]))
    if empties:
        branches.append(("other", _frame_diff_tree(
            empties, index, flats, positions, senses_by_key, frames)))
        alts.append(("other", ""))
    return Question("FRAME-DIFF", (tuple(path), tuple(alts)), tuple(branches))


def _collapse(group, senses_by_key, frames) -> Node:
    """Identical canonical frames: collapse to a label-parent nonterminal,
    else the distinctness requirement is violated."""
    common = set.intersection(*({k.label, *_label_ancestors(k.label)}
                                for k in group))
    base = group[0]
    for label in sorted(common, key=_label_parts, reverse=True):
        parent_key = SenseKey(base.headword, base.pos, base.homograph, label)
        if parent_key in senses_by_key:
            return Nonterminal(parent_key, tuple(group), frames.get(parent_key))
    a, b = group[0], group[1]
    raise CompileError(
        f"duplicate canonical frames among sibling senses: "
        f"{a.render()} and {b.render()}")


# ---------------------------------------------------------------------------
# traversal

def traverse(ssn: SSN, oracle: Oracle) -> TraverseResult:
    """Deterministic walk. A concrete answer follows its branch; anything
    else retains all branches (union) and records the question.  The
    result holds the senses reached and the questions left open."""
    senses: set[SenseKey] = set()
    open_questions: list[str] = []
    terminal = _walk(ssn.root, oracle, senses, open_questions)
    return TraverseResult(tuple(sorted(senses, key=SenseKey.sort_key)),
                          terminal and len(senses) == 1, tuple(open_questions))


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


def oracle_reaching(ssn: SSN, target: SenseKey) -> Optional[dict]:
    """An answer map under which traversal returns exactly the target
    (completeness helper)."""
    return _search(ssn.root, target, {})


def _search(node: Node, target: SenseKey, answers: dict) -> Optional[dict]:
    """``oracle_reaching`` below ``node``, given the answers that lead there."""
    if isinstance(node, Terminal):
        return answers if node.sense == target else None
    if isinstance(node, Nonterminal):
        return None
    for answer, child in node.branches:
        if node.qid in answers and answers[node.qid] != answer:
            continue
        found = _search(child, target, {**answers, node.qid: answer})
        if found is not None:
            return found
    return None


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


def build_all_ssns(lexicon, frames: dict[SenseKey, Frame]) -> dict[str, SSN]:
    """One network per headword."""
    return {hw: compile_ssn(hw, lexicon.records_by_key(hw), frames)
            for hw in sorted(lexicon.headwords())}
