"""Case-frame representations: the derivation of every sense's frame in
one place (``build_frames``: a subsense specializes its label parent's
frame with its own seed lines, a seeded root starts from its seed lines,
another sense derives along its resolved genus arc), the three-way
delta when one verb is used in defining another, and the facts that both
the sense parser and autoresolve match a sentence or a definition
against (``essential_change``, ``_match_facts``).

Frames are persistent values: every derivation operation is pure and
path-copies, rebuilding only the slots on the path it changes and sharing
every other slot with the frame it started from (Driscoll, Sarnak, Sleator
and Tarjan 1989, "Making data structures persistent").  Slots, frames
and deltas are named tuples, cheap to build.  Library code keeps no
self-recursive closure, so reference counting alone frees whatever an
analysis discards.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator

from .lexicon import (
    Lexicon,
    ParsedDefinition,
    Sense,
    SenseKey,
    _label_ancestors,
    head_noun,
    lower_alternatives,
    parse_sense,
    split_alternatives,
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


class Descriptor(namedtuple("Descriptor", "var features", defaults=((),))):
    """Oblique reference to an unknown concept: a variable that satisfies
    the listed features."""

    __slots__ = ()

    def render(self) -> str:
        if self.features:
            return f"?{self.var}({', '.join(self.features)})"
        return f"?{self.var}"


Filler = str | Descriptor


class Slot(namedtuple("Slot", "name case bind filler restrictions children",
                      defaults=((), None, None, (), ()))):
    """A frame slot: its name, its case labels (a disjunction, e.g. PAT,
    AGT), the slot role it is bound to or None, its ``Filler`` or None,
    its restriction phrases and its child slots."""

    __slots__ = ()

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
    return "USED-WITH " + "|".join(cond[1])


class Frame(namedtuple("Frame", "predicate pos conditions slots provisional "
                       "sense provenance",
                       defaults=((), (), False, None, ()))):
    """A sense's case frame: predicate, conditions and slots, whether it
    is provisional, its SenseKey or None, and its provenance.  It holds
    the memos the parser keeps in its ``__dict__``; a frame from
    ``_replace`` starts without them."""


class UseDelta(namedtuple("UseDelta", "kind path value")):
    """One effect of a use on the genus frame (``kind`` FILL, RESTRICT or
    ADD-SLOT): fill a slot, restrict one, or add one, at a slot path."""

    __slots__ = ()

    def render(self) -> str:
        return f"{self.kind} {'.'.join(self.path)} = {self.value}"


# ---------------------------------------------------------------------------
# persistent slot operations
#
# Every frame is canonical when it is built: its slots are in
# ``slot_order_key`` order at every level, one slot per name, and its
# conditions are sorted by ``render_condition``.  Each operation below
# keeps that order, so no reader restores it: ``find_slot`` and
# ``update_slot`` rely on it, and ``frame_to_text`` and the networks read
# a frame in its own order.  A change path-copies: it rebuilds the slots
# on the path it changes and shares every other slot with the frame it
# started from.

# An entry locates a slot for ``_edit``: (the slot, its index among its
# siblings, its parent's entry or None, 1).  The entry of a slot not there
# is (a new empty slot, the index it is to take, its parent's entry, 0).

def find_slot(slots: tuple[Slot, ...], name: str) -> tuple | None:
    """The entry of the first slot with this name, breadth first in slot
    order; else of the first one bound to this role; else None.  Only the
    entries of the slot found and of the slots whose children are visited
    are built, and no path (``_entry_path`` gives it)."""
    bound = None
    levels = [(slots, None)]
    for level, parent in levels:  # also visits what the loop appends
        for i, slot in enumerate(level):
            if slot.name == name:
                return slot, i, parent, 1
            if bound is None and slot.bind == name:
                bound = slot, i, parent, 1
            if slot.children:
                levels.append((slot.children, (slot, i, parent, 1)))
    return bound


def _entry_path(entry: tuple | None) -> tuple[str, ...]:
    return () if entry is None else _entry_path(entry[2]) + (entry[0].name,)


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
    entry, level = None, slots
    for name in path:
        for i, slot in enumerate(level):
            if slot.name == name:
                entry = slot, i, entry, 1
                break
        else:  # before the first slot that sorts after it
            rank = slot_order_key(name)
            entry = Slot(name), next((i for i, s in enumerate(level)
                                      if slot_order_key(s.name) > rank),
                                     len(level)), entry, 0
        level = entry[0].children
    return _edit(slots, entry, change, *args)


def _edit(slots: tuple[Slot, ...], entry: tuple, change: Callable[..., Slot],
          *args) -> tuple[Slot, ...]:
    """``slots`` with ``change(slot, *args)`` in place of the slot of
    ``entry``, an entry made on ``slots`` (inserted, for a slot not
    there): its ancestors are rebuilt in one walk up the entry, without
    looking its path up again by name, and every other slot is shared."""
    old, i, parent, there = entry
    new = change(old, *args)
    if there and new is old:
        return slots
    while parent is not None:
        kids = parent[0].children
        kids = kids[:i] + (new,) + kids[i + there:]
        old, i, parent, there = parent
        new = Slot(old.name, old.case, old.bind, old.filler, old.restrictions,
                   kids)
    return slots[:i] + (new,) + slots[i + there:]


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
    return frame._replace(conditions=tuple(
        sorted(frame.conditions + (cond,), key=render_condition)))


def _without_usage(conds: tuple[Condition, ...]) -> tuple[Condition, ...]:
    return tuple(c for c in conds if c[0] != "USED-WITH")


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

# the deepest slot path a seed line may name: the operations on a slot
# tree recurse once per level, and seed lines are the only source of depth
MAX_SLOT_DEPTH = 100


def _apply_seed_line(frame: Frame, line: str) -> Frame:
    """``frame`` with one seed line folded in."""
    parts = line.split(None, 1)
    if not parts:
        raise SeedGrammarError("empty seed line")
    keyword, rest = parts[0], (parts[1] if len(parts) > 1 else "")
    if keyword == "PRED":
        if not rest.strip():
            raise SeedGrammarError(f"PRED needs a symbol: {line!r}")
        return frame._replace(predicate=rest.strip(), provisional=False)
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
    if "" in path:
        raise SeedGrammarError(f"empty component in slot path {toks[0]!r}")
    if len(path) > MAX_SLOT_DEPTH:
        raise SeedGrammarError(f"slot path of {len(path)} levels, "
                               f"more than {MAX_SLOT_DEPTH}")
    if len(toks) == 1:  # a bare declaration
        return frame._replace(slots=update_slot(frame.slots, path, _as_is))
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
    change = ((_restricted,) if action == "RESTRICT"
              else (_with, _SEED_FIELDS[action]))
    return frame._replace(slots=update_slot(frame.slots, path, *change, value))


# ---------------------------------------------------------------------------
# operations

def _ancestor_keys(key: SenseKey) -> list[SenseKey]:
    """The keys of a sense's label ancestors, nearest first."""
    return [SenseKey(key.headword, key.pos, key.homograph, text)
            for text in _label_ancestors(key.label)]


def _apply_use_to(slots: tuple[Slot, ...], family: str, use: ParsedDefinition,
                  rules: RuleTable
                  ) -> tuple[tuple[Slot, ...], tuple[UseDelta, ...], tuple[str, ...]]:
    """The three-way delta of using a verb in defining another, applied to
    the slots of a frame of predicate ``family``: each differentia may fill
    a slot, add a restriction, or add a slot.  Returns (the new slots,
    deltas, residue); unmapped differentiae land in the residue, never
    dropped.  Only the use's differentiae are read, so a sentence
    (``parser.SentenceContext``, whose differentiae are chunks) applies as
    a use too."""
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
        entry = find_slot(slots, slot_name)
        if entry is None:  # a new empty slot at the top level
            slots = update_slot(slots, (slot_name,), _as_is)
            entry = find_slot(slots, slot_name)
        path = _entry_path(entry)
        if kind == "RESTRICT":
            if phrase.text:
                slots = _edit(slots, entry, _restricted, phrase.text)
            deltas.append(UseDelta("RESTRICT", path, phrase.text))
            continue
        if entry[0].filler is not None:
            residue.append(f"{phrase.prep}-phrase (slot already filled): "
                           f"{phrase.text}")
            continue
        filler = phrase.text
        if not filler:
            descriptor_count += 1
            filler = Descriptor(f"obj{descriptor_count}", ("contextual object",))
        slots = _edit(slots, entry, _with, "filler", filler)
        if slot_name == "AGENT":
            subj = find_slot(slots, "SUBJ")
            if subj is not None and "AGT" in subj[0].case:
                slots = _edit(slots, subj, _with, "case", ("PAT",))
        deltas.append(UseDelta("FILL", path, phrase.text or filler.render()))
    return slots, tuple(deltas), tuple(residue)


class FrameTable(dict):
    """``build_frames``' frame per sense key, with the ``rules`` it used and
    the ``uses`` it applied: (record id, genus word) -> (record, genus
    frame, deltas); holding the record keeps its id from being reused."""

    __slots__ = ("rules", "uses")


def build_frames(lexicon: Lexicon, rules: RuleTable) -> FrameTable:
    """A frame for every sense (see ``_FrameDerivation``): the table lists
    the seeded senses first, then the rest, each group in sorted-key
    order.  Raises the ResolutionError the definition graph would for a
    bad R record, and for a bad seed line a SeedGrammarError that names
    its sense."""
    derivation = _FrameDerivation(lexicon, rules)
    for key in lexicon._sorted_keys:
        derivation.frame_for(key)
    return derivation.frames


class _FrameDerivation:
    """The state of one ``build_frames`` call.

    A sense's frame depends on at most one other frame: its nearest
    label ancestor's in the lexicon, which it specializes with its own
    seed lines, if any; else, for a seeded sense, none, as it starts from
    its seed lines; else the target of its first resolved genus word,
    read from the lexicon's checked resolution map (``Lexicon._resolved``),
    so every key on a chain is a sense of the lexicon.  ``frame_for``
    follows that chain with an explicit stack, so a chain of any depth
    derives without recursion; a key met again while its chain is still
    open (a cycle) contributes a provisional frame, which is not kept."""

    def __init__(self, lexicon: Lexicon, rules: RuleTable):
        self.lexicon, self.rules = lexicon, rules
        self.resolved = lexicon._resolved   # checked before the seed lines
        self.seeds = lexicon.seed_frames
        # places for the seeded senses first; the derivation order, and so
        # where a cycle breaks, does not depend on which senses are seeded
        self.frames = FrameTable.fromkeys(k for k in lexicon._sorted_keys
                                          if k in self.seeds)
        self.frames.rules, self.frames.uses = rules, {}

    def frame_for(self, key: SenseKey) -> Frame:
        frame = self.frames.get(key)
        if frame is not None:
            return frame
        # walk to the first dependency with a frame, then derive back
        chain: list[tuple[SenseKey, tuple[Sense, str] | None]] = []
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

    def _dependency(self, key: SenseKey
                    ) -> tuple[SenseKey, tuple[Sense, str] | None] | None:
        """The key whose frame this key's frame is derived from, with the
        record and genus word that lead there (None for a label ancestor);
        None for a seeded sense without a label ancestor."""
        by_key = self.lexicon._by_key
        for pk in _ancestor_keys(key):
            if pk in by_key:
                return pk, None
        if key in self.seeds:
            return None
        genus = self.lexicon._genus
        for rec in by_key[key]:
            for word in genus[id(rec)]:
                target = self.resolved.get((key, word))
                if target is not None:
                    return target, (rec, word)
        return None

    def _derive(self, key: SenseKey, via: tuple[Sense, str] | None,
                base: Frame | None) -> Frame:
        """The frame of ``key`` from the frame of its dependency, ``base``:
        a label ancestor's when ``via`` is None, else the genus target of
        the (record, genus word) ``via``, whose use it applies; with no
        dependency, an empty seeded frame, or a provisional one for an
        unseeded sense.  Then its seed lines, and each of its records'
        usage condition and subject restriction, which also fills an empty
        SUBJ of a frame derived along a genus arc or provisional."""
        records, seeds = self.lexicon._by_key[key], self.seeds.get(key, ())
        fill_subject = via is not None or (base is None and not seeds)
        if base is None:
            frame = (_provisional(key, self.lexicon) if fill_subject else
                     Frame("", key.pos, sense=key, provenance=("seeded",)))
        else:  # the base's structure, without its usage conditions
            slots = base.slots
            if via is None:
                note = f"specialized from {base.sense.render()}"
            else:
                (rec, word), note = via, "synonym copy"
                if not rec.is_synonym_line:
                    slots, deltas, _ = _apply_use_to(
                        slots, base.predicate, parse_sense(rec), self.rules)
                    self.frames.uses[id(rec), word] = rec, base, deltas
                    note = "applied use"
            frame = Frame(base.predicate, key.pos,
                          _without_usage(base.conditions), slots,
                          base.provisional, key, base.provenance + (note,))
        try:
            for line in seeds:
                frame = _apply_seed_line(frame, line)
        except SeedGrammarError as exc:
            raise SeedGrammarError(f"{key.render()}: {exc}") from exc
        if not frame.predicate:  # a seeded root without a PRED line
            frame = frame._replace(
                provisional=True,
                predicate=_provisional(key, self.lexicon).predicate)
        for rec in records:
            if rec.usage_particles:
                frame = _with_condition(frame, (
                    "USED-WITH", tuple(sorted(rec.usage_particles))))
            if rec.subject_restriction:
                frame = frame._replace(slots=update_slot(
                    frame.slots, ("SUBJ",), _restricted,
                    rec.subject_restriction, fill_subject))
        return frame


def _provisional(key: SenseKey, lexicon: Lexicon) -> Frame:
    """Fallback frame: uppercased genus word as a provisional predicate."""
    predicate = key.headword.upper()
    for rec in lexicon._by_key[key]:
        if rec.is_synonym_line:
            predicate = rec.synonym_refs[0].upper()
            break
        words = lexicon._genus[id(rec)]
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
# dump format

def frame_to_text(frame: Frame) -> str:
    """Indented text tree, in the frame's own (canonical) order."""
    lines = [f"predicate: {frame.predicate}"
             + (" (provisional)" if frame.provisional else "")]
    if frame.sense:
        lines.append(f"sense: {frame.sense.render()}")
    for cond in frame.conditions:
        lines.append(f"condition: {render_condition(cond)}")
    _emit_slots(lines, frame.slots, 1)
    return "\n".join(lines) + "\n"


def _emit_slots(lines: list[str], slots: tuple[Slot, ...], depth: int) -> None:
    """Append ``slots``, each before its children, to ``lines``, indented
    by depth."""
    for slot in slots:
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
        _emit_slots(lines, slot.children, depth + 1)


# ---------------------------------------------------------------------------
# facts that both a sentence's parse and autoresolve read

def essential_change(subject_text: str | None, object_text: str) -> bool:
    """Crude but deterministic: the change is accidental when the object
    head is listed among the subject's stated kinds, else essential."""
    obj_head = head_noun(object_text).lower()
    if not obj_head:
        return True
    kinds: set[str] = set()
    if subject_text:
        for alt in split_alternatives(subject_text):
            kinds.add(alt.lower())
            kinds.update(w.lower() for w in alt.split())
    return obj_head not in kinds


def _match_facts(frame: Frame) -> tuple:
    """What ``parser._match_score`` reads, kept in the frame's
    ``__dict__`` (autoresolve reads the respect alternatives too): the
    lowercased string filler of each SUBJ slot; per RESPECT slot with
    restrictions, the lowercased alternatives of the RESPECT restrictions
    at and below it; the particles of each USED-WITH condition."""
    try:
        return frame.__dict__["_match_facts"]
    except KeyError:  # the first read of this frame
        pass
    slots = list(walk_slots(frame.slots))
    facts = frame.__dict__["_match_facts"] = (
        tuple(s.filler.lower() for s in slots
              if s.name == "SUBJ" and isinstance(s.filler, str)),
        tuple(lower_alternatives(r for t in walk_slots((s,))
                                 if t.name == "RESPECT"
                                 for r in t.restrictions)
              for s in slots if s.name == "RESPECT" and s.restrictions),
        tuple(frozenset(c[1]) for c in frame.conditions
              if c[0] == "USED-WITH"))
    return facts
