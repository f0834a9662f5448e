"""Case-frame representations: seeded frames, subsense specialization,
derivation along resolved genus arcs, the three-way delta when one verb is
used in defining another, and canonical tuple forms for diffing.

Frames are immutable values; every derivation operation is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lexicon import (
    Lexicon,
    ParsedDefinition,
    PartOfSpeech,
    Sense,
    SenseKey,
    SenseLabel,
    genus_words,
    parse_sense,
    usage_particles,
)
from .prep_rules import RuleTable

CASE_LABELS = ("PAT", "AGT")

SLOT_ORDER = (
    "SUBJ", "OBJ", "FROM-STATE", "THROUGH-STATE", "TO-STATE", "TIME1",
    "TIMEX", "TIME2", "RESPECT", "RESULT", "INSTRUMENT", "MANNER",
    "ESSENTIAL-ATTRS", "ACCIDENTAL-ATTRS",
)


_SLOT_RANK = {name: i for i, name in enumerate(SLOT_ORDER)}


def slot_order_key(name: str) -> tuple:
    # open extension names sort last
    return (_SLOT_RANK.get(name, len(SLOT_ORDER)), name)


class SeedGrammarError(ValueError):
    pass


class SpecializationError(ValueError):
    pass


@dataclass(frozen=True)
class Descriptor:
    """Oblique reference to an unknown concept: a variable that satisfies
    the listed features."""

    var: str
    features: tuple[str, ...] = ()

    def render(self) -> str:
        if self.features:
            return f"?{self.var}({', '.join(self.features)})"
        return f"?{self.var}"


Filler = str | Descriptor


@dataclass(frozen=True)
class Slot:
    name: str
    case: tuple[str, ...] = ()            # disjunction, e.g. (PAT, AGT)
    bind: Optional[str] = None             # alias to another slot role
    filler: Optional[Filler] = None
    restrictions: tuple[str, ...] = ()
    children: tuple["Slot", ...] = ()

    def render_filler(self) -> str:
        if self.filler is None:
            return ""
        if isinstance(self.filler, Descriptor):
            return self.filler.render()
        return self.filler


Condition = tuple  # ("NE", a, b) | ("USED-WITH", (p1, p2, ...))


def render_condition(cond: Condition) -> str:
    if cond[0] == "NE":
        return f"{cond[1]} NE {cond[2]}"
    if cond[0] == "USED-WITH":
        return "USED-WITH " + "|".join(cond[1])
    return " ".join(str(c) for c in cond)


@dataclass(frozen=True)
class Frame:
    predicate: str
    pos: PartOfSpeech
    conditions: tuple[Condition, ...] = ()
    slots: tuple[Slot, ...] = ()
    provisional: bool = False
    sense: Optional[SenseKey] = None
    provenance: tuple[str, ...] = ()


@dataclass(frozen=True)
class UseDelta:
    """One effect of a use on the genus frame: fill a slot, restrict one,
    or add one."""

    kind: str                  # FILL | RESTRICT | ADD-SLOT
    path: tuple[str, ...]
    value: str

    def render(self) -> str:
        return f"{self.kind} {'.'.join(self.path)} = {self.value}"


@dataclass(frozen=True)
class ApplyOutcome:
    frame: Frame
    deltas: tuple[UseDelta, ...]
    residue: tuple[str, ...]    # differentiae that mapped to nothing


# ---------------------------------------------------------------------------
# mutable builder

class _SlotNode:
    __slots__ = ("name", "case", "bind", "filler", "restrictions", "children")

    def __init__(self, name: str):
        self.name = name
        self.case: tuple[str, ...] = ()
        self.bind: Optional[str] = None
        self.filler: Optional[Filler] = None
        self.restrictions: list[str] = []
        self.children: dict[str, _SlotNode] = {}

    @classmethod
    def from_slot(cls, slot: Slot) -> "_SlotNode":
        node = cls(slot.name)
        node.case = slot.case
        node.bind = slot.bind
        node.filler = slot.filler
        node.restrictions = list(slot.restrictions)
        node.children = {c.name: cls.from_slot(c) for c in slot.children}
        return node

    def freeze(self) -> Slot:
        kids = tuple(self.children[k].freeze()
                     for k in sorted(self.children, key=slot_order_key))
        return Slot(self.name, self.case, self.bind, self.filler,
                    tuple(self.restrictions), kids)


class _FrameBuilder:
    def __init__(self, pos: PartOfSpeech):
        self.predicate = ""
        self.provisional = False
        self.pos = pos
        self.conditions: list[Condition] = []
        self.roots: dict[str, _SlotNode] = {}
        self.provenance: list[str] = []

    @classmethod
    def from_frame(cls, frame: Frame, pos: Optional[PartOfSpeech] = None) -> "_FrameBuilder":
        b = cls(pos or frame.pos)
        b.predicate = frame.predicate
        b.provisional = frame.provisional
        b.conditions = list(frame.conditions)
        b.roots = {s.name: _SlotNode.from_slot(s) for s in frame.slots}
        b.provenance = list(frame.provenance)
        return b

    def ensure_path(self, path: Iterable[str]) -> _SlotNode:
        parts = list(path)
        node = self.roots.setdefault(parts[0], _SlotNode(parts[0]))
        for name in parts[1:]:
            node = node.children.setdefault(name, _SlotNode(name))
        return node

    def find_slot(self, name: str) -> Optional[tuple[tuple[str, ...], _SlotNode]]:
        """First slot with this name (or bound to this role), canonical BFS."""
        bound: Optional[tuple[tuple[str, ...], _SlotNode]] = None
        queue = [((k,), self.roots[k]) for k in sorted(self.roots, key=slot_order_key)]
        idx = 0
        while idx < len(queue):
            path, node = queue[idx]
            idx += 1
            if node.name == name:
                return path, node
            if node.bind == name and bound is None:
                bound = (path, node)
            for k in sorted(node.children, key=slot_order_key):
                queue.append((path + (k,), node.children[k]))
        return bound

    def strip_usage_conditions(self) -> None:
        self.conditions = [c for c in self.conditions if c[0] != "USED-WITH"]

    def add_usage_condition(self, particles: tuple[str, ...]) -> None:
        cond = ("USED-WITH", tuple(sorted(particles)))
        if cond not in self.conditions:
            self.conditions.append(cond)

    def freeze(self, sense: Optional[SenseKey]) -> Frame:
        slots = tuple(self.roots[k].freeze()
                      for k in sorted(self.roots, key=slot_order_key))
        conds = tuple(sorted(self.conditions, key=render_condition))
        return Frame(self.predicate, self.pos, conds, slots,
                     self.provisional, sense, tuple(self.provenance))


# ---------------------------------------------------------------------------
# seed grammar
#
#   PRED <symbol>
#   COND <slot> NE <slot>
#   SLOT <dotted.path>
#   SLOT <dotted.path> CASE <c1|c2>
#   SLOT <dotted.path> VALUE <text>
#   SLOT <dotted.path> RESTRICT <text>
#   SLOT <dotted.path> BIND <slot>

def _apply_seed_line(builder: _FrameBuilder, line: str) -> None:
    parts = line.split(None, 1)
    if not parts:
        raise SeedGrammarError("empty seed line")
    keyword, rest = parts[0], (parts[1] if len(parts) > 1 else "")
    if keyword == "PRED":
        if not rest.strip():
            raise SeedGrammarError(f"PRED needs a symbol: {line!r}")
        builder.predicate = rest.strip()
        builder.provisional = False
        return
    if keyword == "COND":
        toks = rest.split()
        if len(toks) != 3 or toks[1] != "NE":
            raise SeedGrammarError(f"bad COND line: {line!r}")
        cond = ("NE", toks[0], toks[2])
        if cond not in builder.conditions:
            builder.conditions.append(cond)
        return
    if keyword != "SLOT":
        raise SeedGrammarError(f"unknown seed keyword {keyword!r}")
    toks = rest.split(None, 1)
    if not toks:
        raise SeedGrammarError(f"SLOT needs a path: {line!r}")
    path = tuple(toks[0].split("."))
    node = builder.ensure_path(path)
    if len(toks) == 1:
        return  # bare declaration
    action, _, payload = toks[1].partition(" ")
    payload = payload.strip()
    if action == "CASE":
        cases = tuple(c.strip() for c in payload.split("|") if c.strip())
        if not cases or any(c not in CASE_LABELS for c in cases):
            raise SeedGrammarError(f"bad CASE payload: {line!r}")
        node.case = cases
    elif action == "VALUE":
        if not payload:
            raise SeedGrammarError(f"VALUE needs text: {line!r}")
        node.filler = payload
    elif action == "RESTRICT":
        if not payload:
            raise SeedGrammarError(f"RESTRICT needs text: {line!r}")
        if payload not in node.restrictions:
            node.restrictions.append(payload)
    elif action == "BIND":
        if not payload:
            raise SeedGrammarError(f"BIND needs a slot: {line!r}")
        node.bind = payload
    else:
        raise SeedGrammarError(f"unknown slot action {action!r}")


# ---------------------------------------------------------------------------
# operations

def specialize_subsense(parent: Frame, subsense: Sense,
                        seed_lines: Iterable[str] = ()) -> Frame:
    """Derive a subsense frame from its parent: apply the subsense's seed
    lines, subject restriction, and usage conditions; all other structure
    inherits."""
    return _specialized(parent, subsense, seed_lines).freeze(subsense.key)


def _specialized(parent: Frame, subsense: Sense,
                 seed_lines: Iterable[str] = ()) -> _FrameBuilder:
    if parent.sense is not None:
        plabel = SenseLabel(parent.sense.label)
        if plabel not in subsense.label.ancestors():
            raise SpecializationError(
                f"{subsense.label} is not a child of {plabel}")
    builder = _FrameBuilder.from_frame(parent, subsense.pos)
    builder.strip_usage_conditions()
    for line in seed_lines:
        _apply_seed_line(builder, line)
    _annotate(builder, subsense)
    builder.provenance = list(parent.provenance) + [
        f"specialized from {parent.sense.render() if parent.sense else parent.predicate}"]
    return builder


def _annotate(builder: _FrameBuilder, rec: Sense,
              fill_subject: bool = False) -> None:
    """Add a record's usage condition and subject restriction; with
    ``fill_subject`` the restriction also fills an empty SUBJ."""
    particles = usage_particles(rec.usage_note)
    if particles:
        builder.add_usage_condition(particles)
    subject = rec.subject_restriction
    if subject:
        node = builder.ensure_path(("SUBJ",))
        if subject not in node.restrictions:
            node.restrictions.append(subject)
        if fill_subject and node.filler is None:
            node.filler = subject


def load_seed_frames(lexicon: Lexicon) -> dict[SenseKey, Frame]:
    """Frames for every sense that carries seed lines, parents first so
    subsenses inherit."""
    out: dict[SenseKey, Frame] = {}
    seeded = sorted(lexicon.seed_frames, key=SenseKey.sort_key)
    for key in seeded:
        records = lexicon.records_for(key)
        if not records:
            continue
        primary = records[0]
        parent = _nearest_ancestor_frame(key, out)
        if parent is not None:
            builder = _specialized(parent, primary, lexicon.seed_frames[key])
        else:
            builder = _FrameBuilder(key.pos)
            builder.provenance = ["seeded"]
            for line in lexicon.seed_frames[key]:
                _apply_seed_line(builder, line)
            _annotate(builder, primary)
        # coordinate records may add their own usage notes / subjects
        for rec in records[1:]:
            _annotate(builder, rec)
        out[key] = builder.freeze(key)
    return out


def _nearest_ancestor_frame(key: SenseKey,
                            frames: dict[SenseKey, Frame]) -> Optional[Frame]:
    for anc in SenseLabel(key.label).ancestors():
        pk = SenseKey(key.headword, key.pos, key.homograph, anc.text)
        if pk in frames:
            return frames[pk]
    return None


def apply_use(base: Frame, use: ParsedDefinition,
              rules: RuleTable) -> ApplyOutcome:
    """The three-way delta of using a verb in defining another: each
    differentia may fill a slot, add a restriction, or add a slot.
    Unmapped differentiae land in the residue, never dropped."""
    builder = _FrameBuilder.from_frame(base)
    deltas, residue = _apply_use_to(builder, use, rules)
    builder.provenance = list(base.provenance) + ["applied use"]
    return ApplyOutcome(builder.freeze(base.sense), deltas, residue)


def use_deltas(base: Frame, use: ParsedDefinition,
               rules: RuleTable) -> tuple[UseDelta, ...]:
    """The deltas of ``apply_use(base, use, rules)``, without building the
    resulting frame."""
    return _apply_use_to(_FrameBuilder.from_frame(base), use, rules)[0]


def _apply_use_to(builder: _FrameBuilder, use: ParsedDefinition,
                  rules: RuleTable) -> tuple[tuple[UseDelta, ...], tuple[str, ...]]:
    """Apply a use to a thawed frame in place: (deltas, residue)."""
    deltas: list[UseDelta] = []
    residue: list[str] = []
    descriptor_count = 0
    family = builder.predicate

    for phrase in use.differentiae:
        if phrase.kind == "adverb":
            node = builder.ensure_path(("MANNER",))
            if phrase.text not in node.restrictions:
                node.restrictions.append(phrase.text)
            deltas.append(UseDelta("ADD-SLOT", ("MANNER",), phrase.text))
            continue
        if phrase.kind != "prep-phrase":
            residue.append(f"{phrase.kind}: {phrase.text}")
            continue
        if phrase.hedged:
            residue.append(f"hedged {phrase.prep}-phrase: {phrase.text}")
            continue
        action = rules.slot_action(phrase.prep, family)
        if action is None:
            residue.append(f"{phrase.prep}-phrase: {phrase.text}")
            continue
        slot_name, kind = action
        if kind == "FILL":
            found = builder.find_slot(slot_name)
            if found is None:
                path, node = (slot_name,), builder.ensure_path((slot_name,))
            else:
                path, node = found
            if node.filler is not None:
                residue.append(f"{phrase.prep}-phrase (slot already filled): "
                               f"{phrase.text}")
                continue
            if phrase.text:
                node.filler = phrase.text
                value = phrase.text
            else:
                descriptor_count += 1
                d = Descriptor(f"obj{descriptor_count}", ("contextual object",))
                node.filler = d
                value = d.render()
            if slot_name == "AGENT":
                subj = builder.find_slot("SUBJ")
                if subj is not None and "AGT" in subj[1].case:
                    subj[1].case = ("PAT",)
            deltas.append(UseDelta("FILL", path, value))
        elif kind == "RESTRICT":
            found = builder.find_slot(slot_name)
            if found is None:
                path, node = (slot_name,), builder.ensure_path((slot_name,))
            else:
                path, node = found
            if phrase.text and phrase.text not in node.restrictions:
                node.restrictions.append(phrase.text)
            deltas.append(UseDelta("RESTRICT", path, phrase.text))
        else:
            residue.append(f"{phrase.prep}-phrase (unknown action {kind}): "
                           f"{phrase.text}")
    return tuple(deltas), tuple(residue)


def build_frames(lexicon: Lexicon, rules: RuleTable) -> dict[SenseKey, Frame]:
    """A frame for every sense: seeded senses from their seed lines (with
    label-parent inheritance), other senses derived along their resolved
    genus arc, and provisional frames where no resolution exists."""
    derivation = _FrameDerivation(lexicon, rules)
    for key in sorted(lexicon.sense_keys(), key=SenseKey.sort_key):
        derivation.frame_for(key)
    return derivation.frames


class _FrameDerivation:
    """The state of one ``build_frames`` call.

    A sense's frame depends on at most one other frame: its nearest
    label ancestor's, or else the target of its first resolved genus word.
    ``frame_for`` follows that chain with an explicit stack, so a chain of
    any depth derives without recursion; a key met again while its chain
    is still open (a cycle) contributes a provisional frame, which is not
    kept."""

    def __init__(self, lexicon: Lexicon, rules: RuleTable):
        self.lexicon, self.rules = lexicon, rules
        self.frames: dict[SenseKey, Frame] = dict(load_seed_frames(lexicon))
        self.resolution_map = {(r.from_key, r.genus_word): r.target
                               for r in lexicon.resolutions}

    def frame_for(self, key: SenseKey) -> Frame:
        frame = self.frames.get(key)
        if frame is not None:
            return frame
        # walk to the first dependency with a frame, then derive back
        chain: list[tuple[SenseKey, Optional[Sense]]] = []
        open_keys: set[SenseKey] = set()
        while True:
            open_keys.add(key)
            dep = self._dependency(key)
            if dep is None:
                chain.append((key, None))
                break
            target, via = dep
            chain.append((key, via))
            frame = self.frames.get(target)
            if frame is not None:
                break
            if target in open_keys:
                frame = _provisional(target, self.lexicon).freeze(target)
                break
            key = target
        for key, via in reversed(chain):
            frame = self.frames[key] = self._derive(key, via, frame)
        return frame

    def _dependency(self, key: SenseKey) -> Optional[tuple[SenseKey, Optional[Sense]]]:
        """The key whose frame this key's frame is derived from, with the
        record whose genus word leads there (None for a label ancestor).
        A key that is no sense of the lexicon (an R record's unknown
        target) has none, so it gets a provisional frame."""
        if not self.lexicon.has_sense(key):
            return None
        for anc in SenseLabel(key.label).ancestors():
            pk = SenseKey(key.headword, key.pos, key.homograph, anc.text)
            if self.lexicon.has_sense(pk):
                return pk, None
        for rec in self.lexicon.records_for(key):
            for word in genus_words(rec, self.lexicon):
                target = self.resolution_map.get((key, word))
                if target is not None:
                    return target, rec
        return None

    def _derive(self, key: SenseKey, via: Optional[Sense],
                base: Optional[Frame]) -> Frame:
        """The frame of ``key`` from the frame of its dependency: a label
        ancestor's when ``via`` is None, else the genus target ``via``
        names; a provisional frame when there is no dependency."""
        records = self.lexicon.records_for(key)
        if base is None:
            builder = _provisional(key, self.lexicon)
            fill_subject = True
        elif via is None:
            builder = _specialized(base, records[0])
            records, fill_subject = records[1:], False
        else:
            builder = _FrameBuilder.from_frame(base, via.pos)
            builder.strip_usage_conditions()
            if via.is_synonym_line:
                note = "synonym copy"
            else:
                _apply_use_to(builder, parse_sense(via), self.rules)
                note = "applied use"
            builder.provenance = list(base.provenance) + [note]
            fill_subject = True
        for rec in records:
            _annotate(builder, rec, fill_subject)
        return builder.freeze(key)


def _provisional(key: SenseKey, lexicon: Lexicon) -> _FrameBuilder:
    """Fallback frame: uppercased genus word as a provisional predicate."""
    records = lexicon.records_for(key)
    predicate = key.headword.upper()
    for rec in records:
        if rec.is_synonym_line:
            predicate = rec.synonym_refs[0].upper()
            break
        words = genus_words(rec, lexicon)
        if words:
            predicate = words[0].upper()
            break
        parsed = parse_sense(rec)
        if parsed.genus_complement:
            predicate = parsed.genus_complement.split()[-1].upper()
            break
    builder = _FrameBuilder(key.pos)
    builder.predicate = predicate
    builder.provisional = True
    if key.pos.is_verb:
        subj = builder.ensure_path(("SUBJ",))
        subj.case = ("PAT", "AGT")
    builder.provenance = ["provisional predicate"]
    return builder


# ---------------------------------------------------------------------------
# canonical form and diffing

_TRANSITIVITY = {PartOfSpeech.VI: "intransitive", PartOfSpeech.VT: "transitive",
                 PartOfSpeech.VB: "both"}


def _slot_canonical(slot: Slot) -> tuple:
    return ("slot", slot.name,
            ("case", " v ".join(slot.case)),
            ("bind", slot.bind or ""),
            ("filler", slot.render_filler()),
            ("restrictions", tuple(sorted(slot.restrictions))),
            ("children", tuple(_slot_canonical(c) for c in
                               sorted(slot.children, key=lambda s: slot_order_key(s.name)))))


def frame_canonicalize(frame: Frame) -> tuple:
    """Deterministic ordered tuple: syntax first, contextual conditions,
    then slots in canonical order, recursively."""
    return ("frame",
            ("pos", frame.pos.value),
            ("transitivity", _TRANSITIVITY.get(frame.pos, "")),
            ("predicate", frame.predicate,
             "provisional" if frame.provisional else "fixed"),
            ("conditions", tuple(sorted(render_condition(c)
                                        for c in frame.conditions))),
            ("slots", tuple(_slot_canonical(s) for s in
                            sorted(frame.slots, key=lambda s: slot_order_key(s.name)))))


_FIELD_ORDER = {"case": 0, "bind": 1, "filler": 2, "restrictions": 3}


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

    def walk(slot: Slot, sort_prefix: tuple, display_prefix: tuple[str, ...]):
        base_sort = sort_prefix + (slot_order_key(slot.name),)
        base_disp = display_prefix + (slot.name,)
        out[base_sort + ((0, "case"),)] = (base_disp + ("case",),
                                           " v ".join(slot.case))
        out[base_sort + ((1, "bind"),)] = (base_disp + ("bind",), slot.bind or "")
        out[base_sort + ((2, "filler"),)] = (base_disp + ("filler",),
                                             slot.render_filler())
        out[base_sort + ((3, "restrictions"),)] = (
            base_disp + ("restrictions",), tuple(sorted(slot.restrictions)))
        for child in slot.children:
            walk(child, base_sort + ((4, "children"),), base_disp)

    for slot in frame.slots:
        walk(slot, ((4, "slots"),), ("slots",))
    return out


@dataclass(frozen=True)
class DiffPoint:
    path: tuple[str, ...]
    a_value: object
    b_value: object

    def render(self) -> str:
        return f"{'.'.join(self.path)}: {self.a_value!r} vs {self.b_value!r}"


def frame_diff(a: Frame, b: Frame) -> Optional[DiffPoint]:
    """Lexicographically first differing position of the canonical tuples,
    or None when equal."""
    pa = canonical_paths(a)
    pb = canonical_paths(b)
    for pos in sorted(set(pa) | set(pb)):
        va = pa.get(pos, (None, None))
        vb = pb.get(pos, (None, None))
        if va[1] != vb[1]:
            display = va[0] if va[0] is not None else vb[0]
            return DiffPoint(display, va[1], vb[1])
    return None


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
    for index in range(start, len(positions)):
        pos = positions[index]
        values = {}
        display = None
        for key in keys:
            entry = flats[key].get(pos)
            if entry is not None:
                display = entry[0]
            values[key] = entry[1] if entry is not None else None
        distinct = {None if v in EMPTY_VALUES else repr(v)
                    for v in values.values()}
        if len(distinct) > 1:
            return index, display, values
    return None


def group_first_diff(frames: dict[SenseKey, Frame]):
    """First canonical position at which any two frames of the group differ,
    absent and empty values being alike: (display path, {sense key:
    value-at-position}) or None."""
    flats, positions = flat_group(frames)
    found = first_diff(list(frames), flats, positions)
    return None if found is None else found[1:]


# ---------------------------------------------------------------------------
# dump format

def frame_to_text(frame: Frame) -> str:
    """Indented text tree, stable ordering."""
    lines = [f"predicate: {frame.predicate}"
             + (" (provisional)" if frame.provisional else "")]
    if frame.sense:
        lines.append(f"sense: {frame.sense.render()}")
    for cond in sorted(frame.conditions, key=render_condition):
        lines.append(f"condition: {render_condition(cond)}")

    def emit(slot: Slot, depth: int):
        bits = [slot.name]
        if slot.case:
            bits.append(f"case={' v '.join(slot.case)}")
        if slot.bind:
            bits.append(f"bind={slot.bind}")
        if slot.filler is not None:
            bits.append(f"= {slot.render_filler()}")
        for r in slot.restrictions:
            bits.append(f"[{r}]")
        lines.append("  " * depth + " ".join(bits))
        for child in sorted(slot.children, key=lambda s: slot_order_key(s.name)):
            emit(child, depth + 1)

    for slot in sorted(frame.slots, key=lambda s: slot_order_key(s.name)):
        emit(slot, 1)
    return "\n".join(lines) + "\n"
