"""Case-frame representations: seeded frames, subsense specialization,
derivation along resolved genus arcs, the three-way delta when one verb is
used in defining another, and canonical tuple forms for diffing.

Frames are persistent values: every derivation operation is pure and
path-copies, rebuilding only the slots on the path it changes and sharing
every other slot with the frame it started from (Driscoll, Sarnak, Sleator
and Tarjan 1989, "Making data structures persistent").  A ``Slot`` is a
NamedTuple, cheap to build.  Library code keeps no self-recursive closure,
so reference counting alone frees whatever an analysis discards.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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


class Slot(NamedTuple):
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

    @cached_property
    def _is_canonical(self) -> bool:
        """The memo behind ``frames._canonical``: are the conditions sorted
        and the slots in slot order at every level, one per name?"""
        return (list(self.conditions)
                == sorted(self.conditions, key=render_condition)
                and _sorted_slots(self.slots) == self.slots)


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
# persistent slot operations
#
# Every frame the operations below return keeps its slots in
# ``slot_order_key`` order at every level, one slot per name, and its
# conditions sorted by ``render_condition``; ``find_slot`` and
# ``update_slot`` rely on that order, and the public operations first put
# a frame built otherwise into it (``_canonical``).  A change path-copies:
# it rebuilds the slots on the path it changes and shares every other slot
# with the frame it started from.

def find_slot(slots: tuple[Slot, ...], name: str
              ) -> Optional[tuple[tuple[str, ...], Slot]]:
    """Path and slot of the first slot with this name, breadth first in
    slot order; else of the first one bound to this role; else None."""
    bound: Optional[tuple[tuple[str, ...], Slot]] = None
    queue = [((s.name,), s) for s in slots]
    for path, slot in queue:  # also visits what the loop appends
        if slot.name == name:
            return path, slot
        if bound is None and slot.bind == name:
            bound = path, slot
        if slot.children:
            queue.extend((path + (c.name,), c) for c in slot.children)
    return bound


def walk_slots(slots: tuple[Slot, ...]) -> Iterator[Slot]:
    """Every slot under ``slots``, depth first, each before its children."""
    stack = list(reversed(slots))
    while stack:
        slot = stack.pop()
        yield slot
        stack.extend(reversed(slot.children))


def update_slot(slots: tuple[Slot, ...], path: tuple[str, ...],
                change: Callable[..., Slot], *args) -> tuple[Slot, ...]:
    """``slots`` with the slot at ``path`` replaced by ``change(slot,
    *args)``; a slot missing on the path is created empty at its slot-order
    position.  Every slot off the path is shared."""
    name = path[0]
    for i, old in enumerate(slots):
        if old.name == name:
            found = True
            break
    else:
        found, old = False, Slot(name)
        rank = slot_order_key(name)
        i = sum(slot_order_key(s.name) < rank for s in slots)
    if len(path) > 1:
        kids = update_slot(old.children, path[1:], change, *args)
        new = old if kids is old.children else Slot(
            old.name, old.case, old.bind, old.filler, old.restrictions, kids)
    else:
        new = change(old, *args)
    if found and new is old:
        return slots
    return slots[:i] + (new,) + slots[i + found:]


def _as_is(slot: Slot, *_) -> Slot:
    return slot


def _with(slot: Slot, field: str, value) -> Slot:
    """The slot with its ``case``, ``bind`` or ``filler`` set to ``value``."""
    return Slot(slot.name,
                value if field == "case" else slot.case,
                value if field == "bind" else slot.bind,
                value if field == "filler" else slot.filler,
                slot.restrictions, slot.children)


def _restricted(slot: Slot, text: str, fill: bool = False) -> Slot:
    """The slot with ``text`` among its restrictions; with ``fill`` it also
    fills the slot when empty."""
    restrictions = (slot.restrictions if text in slot.restrictions
                    else slot.restrictions + (text,))
    filler = text if fill and slot.filler is None else slot.filler
    if restrictions is slot.restrictions and filler is slot.filler:
        return slot
    return Slot(slot.name, slot.case, slot.bind, filler, restrictions,
                slot.children)


def _with_condition(frame: Frame, cond: Condition) -> Frame:
    if cond in frame.conditions:
        return frame
    return replace(frame, conditions=tuple(
        sorted(frame.conditions + (cond,), key=render_condition)))


def _without_usage(conds: tuple[Condition, ...]) -> tuple[Condition, ...]:
    return tuple(c for c in conds if c[0] != "USED-WITH")


def _sorted_slots(slots: tuple[Slot, ...]) -> tuple[Slot, ...]:
    """``slots`` in slot order at every level, the last of each name kept."""
    by_name = {s.name: Slot(s.name, s.case, s.bind, s.filler, s.restrictions,
                            _sorted_slots(s.children)) for s in slots}
    return tuple(by_name[k] for k in sorted(by_name, key=slot_order_key))


def _canonical(frame: Frame) -> Frame:
    """A frame as the operations keep it (see above); the very frame when
    it is so already, as every frame they return is."""
    if frame._is_canonical:
        return frame
    return replace(frame, slots=_sorted_slots(frame.slots),
                   conditions=tuple(sorted(frame.conditions,
                                           key=render_condition)))


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

_SEED_FIELDS = {"CASE": "case", "VALUE": "filler", "BIND": "bind"}


def _apply_seed_line(frame: Frame, line: str) -> Frame:
    """``frame`` with one seed line folded in."""
    parts = line.split(None, 1)
    if not parts:
        raise SeedGrammarError("empty seed line")
    keyword, rest = parts[0], (parts[1] if len(parts) > 1 else "")
    if keyword == "PRED":
        if not rest.strip():
            raise SeedGrammarError(f"PRED needs a symbol: {line!r}")
        return replace(frame, predicate=rest.strip(), provisional=False)
    if keyword == "COND":
        toks = rest.split()
        if len(toks) != 3 or toks[1] != "NE":
            raise SeedGrammarError(f"bad COND line: {line!r}")
        return _with_condition(frame, ("NE", toks[0], toks[2]))
    if keyword != "SLOT":
        raise SeedGrammarError(f"unknown seed keyword {keyword!r}")
    toks = rest.split(None, 1)
    if not toks:
        raise SeedGrammarError(f"SLOT needs a path: {line!r}")
    path = tuple(toks[0].split("."))
    if len(toks) == 1:  # a bare declaration
        return replace(frame, slots=update_slot(frame.slots, path, _as_is))
    action, _, payload = toks[1].partition(" ")
    value = payload.strip()
    if action == "CASE":
        value = tuple(c.strip() for c in value.split("|") if c.strip())
        if not value or any(c not in CASE_LABELS for c in value):
            raise SeedGrammarError(f"bad CASE payload: {line!r}")
    elif action not in ("VALUE", "RESTRICT", "BIND"):
        raise SeedGrammarError(f"unknown slot action {action!r}")
    elif not value:
        what = "a slot" if action == "BIND" else "text"
        raise SeedGrammarError(f"{action} needs {what}: {line!r}")
    if action == "RESTRICT":
        slots = update_slot(frame.slots, path, _restricted, value)
    else:
        slots = update_slot(frame.slots, path, _with, _SEED_FIELDS[action],
                            value)
    return replace(frame, slots=slots)


# ---------------------------------------------------------------------------
# operations

def specialize_subsense(parent: Frame, subsense: Sense,
                        seed_lines: Iterable[str] = ()) -> Frame:
    """Derive a subsense frame from its parent: apply the subsense's seed
    lines, subject restriction, and usage conditions; all other structure
    inherits."""
    parent = _canonical(parent)
    if parent.sense is not None:
        plabel = SenseLabel(parent.sense.label)
        if plabel not in subsense.label.ancestors():
            raise SpecializationError(
                f"{subsense.label} is not a child of {plabel}")
    origin = parent.sense.render() if parent.sense else parent.predicate
    frame = Frame(parent.predicate, subsense.pos,
                  _without_usage(parent.conditions), parent.slots,
                  parent.provisional, subsense.key,
                  parent.provenance + (f"specialized from {origin}",))
    for line in seed_lines:
        frame = _apply_seed_line(frame, line)
    return _annotate(frame, subsense)


def _annotate(frame: Frame, rec: Sense, fill_subject: bool = False) -> Frame:
    """Add a record's usage condition and subject restriction; with
    ``fill_subject`` the restriction also fills an empty SUBJ."""
    particles = usage_particles(rec.usage_note)
    if particles:
        frame = _with_condition(frame, ("USED-WITH", tuple(sorted(particles))))
    subject = rec.subject_restriction
    if subject:
        frame = replace(frame, slots=update_slot(
            frame.slots, ("SUBJ",), _restricted, subject, fill_subject))
    return frame


def load_seed_frames(lexicon: Lexicon) -> dict[SenseKey, Frame]:
    """Frames for every sense that carries seed lines, parents first so
    subsenses inherit.  A root frame whose lines name no predicate takes a
    provisional one, as an unseeded sense would."""
    out: dict[SenseKey, Frame] = {}
    seeded = sorted(lexicon.seed_frames, key=SenseKey.sort_key)
    for key in seeded:
        records = lexicon.records_for(key)
        if not records:
            continue
        primary = records[0]
        parent = next((out[pk] for pk in _ancestor_keys(key) if pk in out),
                      None)
        if parent is not None:
            frame = specialize_subsense(parent, primary,
                                        lexicon.seed_frames[key])
        else:
            frame = Frame("", key.pos, sense=key, provenance=("seeded",))
            for line in lexicon.seed_frames[key]:
                frame = _apply_seed_line(frame, line)
            if not frame.predicate:
                frame = replace(frame, provisional=True,
                                predicate=_provisional(key, lexicon).predicate)
            frame = _annotate(frame, primary)
        # coordinate records may add their own usage notes / subjects
        for rec in records[1:]:
            frame = _annotate(frame, rec)
        out[key] = frame
    return out


def _ancestor_keys(key: SenseKey) -> list[SenseKey]:
    """The keys of a sense's label ancestors, nearest first."""
    return [SenseKey(key.headword, key.pos, key.homograph, anc.text)
            for anc in SenseLabel(key.label).ancestors()]


def apply_use(base: Frame, use: ParsedDefinition,
              rules: RuleTable) -> ApplyOutcome:
    """The three-way delta of using a verb in defining another: each
    differentia may fill a slot, add a restriction, or add a slot.
    Unmapped differentiae land in the residue, never dropped."""
    base = _canonical(base)
    slots, deltas, residue = _apply_use_to(base.slots, base.predicate, use,
                                           rules)
    frame = replace(base, slots=slots,
                    provenance=base.provenance + ("applied use",))
    return ApplyOutcome(frame, deltas, residue)


def use_deltas(base: Frame, use: ParsedDefinition,
               rules: RuleTable) -> tuple[UseDelta, ...]:
    """The deltas of ``apply_use(base, use, rules)``, without building the
    resulting frame."""
    return _apply_use_to(_canonical(base).slots, base.predicate, use, rules)[1]


def _apply_use_to(slots: tuple[Slot, ...], family: str, use: ParsedDefinition,
                  rules: RuleTable
                  ) -> tuple[tuple[Slot, ...], tuple[UseDelta, ...], tuple[str, ...]]:
    """Apply a use to the slots of a frame of predicate ``family``: (the new
    slots, deltas, residue)."""
    deltas: list[UseDelta] = []
    residue: list[str] = []
    descriptor_count = 0

    for phrase in use.differentiae:
        if phrase.kind == "adverb":
            slots = update_slot(slots, ("MANNER",), _restricted, phrase.text)
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
        if kind not in ("FILL", "RESTRICT"):
            residue.append(f"{phrase.prep}-phrase (unknown action {kind}): "
                           f"{phrase.text}")
            continue
        path, slot = find_slot(slots, slot_name) or ((slot_name,), None)
        if kind == "RESTRICT":
            change = _restricted if phrase.text else _as_is
            slots = update_slot(slots, path, change, phrase.text)
            deltas.append(UseDelta("RESTRICT", path, phrase.text))
            continue
        if slot is not None and slot.filler is not None:
            residue.append(f"{phrase.prep}-phrase (slot already filled): "
                           f"{phrase.text}")
            continue
        filler = phrase.text
        if not filler:
            descriptor_count += 1
            filler = Descriptor(f"obj{descriptor_count}", ("contextual object",))
        slots = update_slot(slots, path, _with, "filler", filler)
        if slot_name == "AGENT":
            subj = find_slot(slots, "SUBJ")
            if subj is not None and "AGT" in subj[1].case:
                slots = update_slot(slots, subj[0], _with, "case", ("PAT",))
        deltas.append(UseDelta("FILL", path, phrase.text or filler.render()))
    return slots, tuple(deltas), tuple(residue)


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
                frame = _provisional(target, self.lexicon)
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
        for pk in _ancestor_keys(key):
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
            frame = _provisional(key, self.lexicon)
            fill_subject = True
        elif via is None:
            frame = specialize_subsense(base, records[0])
            records, fill_subject = records[1:], False
        else:
            slots, note = base.slots, "synonym copy"
            if not via.is_synonym_line:
                slots = _apply_use_to(slots, base.predicate, parse_sense(via),
                                      self.rules)[0]
                note = "applied use"
            frame = Frame(base.predicate, via.pos,
                          _without_usage(base.conditions), slots,
                          base.provisional, key, base.provenance + (note,))
            fill_subject = True
        for rec in records:
            frame = _annotate(frame, rec, fill_subject)
        return frame


def _provisional(key: SenseKey, lexicon: Lexicon) -> Frame:
    """Fallback frame: uppercased genus word as a provisional predicate."""
    predicate = key.headword.upper()
    for rec in lexicon.records_for(key):
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
    slots = (Slot("SUBJ", ("PAT", "AGT")),) if key.pos.is_verb else ()
    return Frame(predicate, key.pos, (), slots, True, key,
                 ("provisional predicate",))


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
        _slot_paths(out, child, base_sort + ((4, "children"),), base_disp)


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
    for slot in sorted(frame.slots, key=lambda s: slot_order_key(s.name)):
        _emit_slot(lines, slot, 1)
    return "\n".join(lines) + "\n"


def _emit_slot(lines: list[str], slot: Slot, depth: int) -> None:
    """Append ``slot`` and its children to ``lines``, indented by depth."""
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
        _emit_slot(lines, child, depth + 1)
