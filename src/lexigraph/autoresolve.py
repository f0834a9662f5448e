"""Resolving genus uses inside definitions: for each definition that has
a given genus word among its genus heads, the sense of that verb it uses,
proposed from the definition's own phrases as a LEXF R record, or the
candidate senses left with the rationale.

It reads frames and the lexicon only, not the sentence parser or the
networks, so the ``autoresolve`` command compiles neither.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .frames import Frame, _match_facts, essential_change, walk_slots
from .lexicon import (
    Lexicon,
    Phrase,
    Sense,
    SenseKey,
    _label_ancestors,
    lower_alternatives,
    parse_sense,
    split_alternatives,
)
from .prep_rules import RuleTable


class AutoResolution(namedtuple(
        "AutoResolution", "using genus_word unique candidates rationale")):
    """The proposal for one use of a genus word: the using SenseKey, the
    one target (``unique``) or None, the candidate keys left and why."""

    __slots__ = ()

    def render(self) -> str:
        """A unique proposal as its LEXF R line, another as a comment line
        with its rationale and candidates."""
        if self.unique is not None:
            return (f"R|{self.using.render()}|{self.genus_word}|"
                    f"{self.unique.render()}")
        cands = ",".join(k.render() for k in self.candidates)
        return f"# {self.using.render()}: {self.rationale}: {cands}"


class _GenusTable:
    """What disambiguation needs to know about one genus verb, computed
    once however many definitions use it: the word, its verb sense keys,
    the family carrying a respect group, the family whose subject is bound
    as the from-state and the keys of both families, each in canonical
    order; the head of the bind family, the particles each of its senses
    requires, and the respect alternatives stated in each respect-family
    frame."""

    def __init__(self, word: str, lexicon: Lexicon,
                 frames: dict[SenseKey, Frame]):
        self.word = word
        self.keys = tuple(k for k in lexicon._by_headword.get(word, ())
                          if k.pos.is_verb)
        self.respect_family: list[SenseKey] = []
        self.bind_family: list[SenseKey] = []
        self.respect_sets: dict[SenseKey, frozenset[str]] = {}
        self.required: dict[SenseKey, set[str]] = {}
        for k in self.keys:
            frame = frames.get(k)
            if frame is None:
                continue
            if any(s.name == "SUBJ" and s.bind == "FROM-STATE"
                   for s in frame.slots):
                self.bind_family.append(k)
                self.required[k] = {p for rec in lexicon._by_key[k]
                                    for p in rec.usage_particles}
            elif any(s.name == "RESPECT" for s in walk_slots(frame.slots)):
                self.respect_family.append(k)
                self.respect_sets[k] = frozenset().union(*_match_facts(frame)[1])
        self.both_families = [k for k in self.keys
                              if k in self.required or k in self.respect_sets]
        # the first of the fewest label ancestors
        self.family_head = min(self.bind_family, default=None,
                               key=lambda k: len(_label_ancestors(k.label)))


def _propose(records: list[Sense], table: _GenusTable) -> AutoResolution:
    """Propose the sense of ``table``'s genus verb used by a definition
    (its records): an adjacent from...to pair forces the respect family; an
    into/to object presumes the subject-transforming family subject to the
    essential-change check; an in-phrase is compared against the subsense
    respect sets."""
    fam1, fam2 = table.respect_family, table.bind_family

    phrases: Sequence[Phrase] = ()
    subject = None
    negated = False
    synonym_note_particles: tuple[str, ...] = ()
    for rec in records:
        if rec.is_synonym_line:
            synonym_note_particles = rec.usage_particles
            continue
        parsed = parse_sense(rec)
        if not phrases:
            phrases = parsed.differentiae
            negated = parsed.negated
            subject = rec.subject_restriction

    pps = [p for p in phrases if p.kind == "prep-phrase" and not p.hedged]
    state_pp = next((p for p in pps if p.prep in ("into", "to")), None)
    in_pp = next((p for p in pps if p.prep == "in" and p.text), None)
    unique = None
    if any(a.prep == "from" and b.prep == "to" for a, b in zip(pps, pps[1:])):
        candidates = fam1
        why = ("from...to pair: the respect family is intended; "
               "the particular respect needs further context")
    elif state_pp is not None and not state_pp.text:
        particles = {p.prep for p in pps}
        candidates = [k for k in fam2 if not table.required[k]
                      or table.required[k] & particles] or fam2
        why = ("state preposition without an object: subject-transforming "
               "family presumed, object awaited from context")
    elif state_pp is not None and len(split_alternatives(state_pp.text)) > 1:
        candidates = table.both_families
        why = "disjunctive state object: both families apply"
    elif (state_pp is not None and table.family_head is not None
          and essential_change(subject, state_pp.text)):
        unique = table.family_head
        candidates = [unique]
        why = ("essential change into a new kind: "
               "subject-transforming family head")
    elif state_pp is not None:
        candidates = fam1
        why = ("state object within the subject's stated kinds: "
               "accidental change, respect family")
    elif in_pp is not None:
        given = lower_alternatives((in_pp.text,))
        candidates = [k for k in fam1 if given & table.respect_sets[k]]
        if len(candidates) == 1:
            unique = candidates[0]
            why = "respect matches exactly one subsense restriction set"
        elif candidates:
            why = "respect matches several subsense restriction sets"
        else:
            candidates = fam1
            why = ("respect stated but matches no subsense set: "
                   "respect family, subsense open")
    elif set(synonym_note_particles) & {"into", "to"}:
        candidates = fam2
        why = ("bare cross-reference noted with a state preposition: "
               "subject-transforming family presumed")
    else:
        candidates = table.keys
        why = ("negated use: any sense may be the negated base" if negated
               else "no discriminating context: all senses apply")
    # every candidate list above keeps the canonical order of table.keys
    return AutoResolution(records[0].key, table.word, unique,
                          tuple(candidates), why)


def autoresolve_all(lexicon: Lexicon, frames: dict[SenseKey, Frame],
                    rules: RuleTable,
                    genus_word: str = "change") -> list[AutoResolution]:
    """Proposals for every sense with the given genus word, each about
    that word, from its one genus table."""
    table = _GenusTable(genus_word, lexicon, frames)
    genus, by_key = lexicon._genus, lexicon._by_key
    return [_propose(by_key[key], table) for key in lexicon._sorted_keys
            if key.pos.is_verb and key.headword != genus_word
            and any(genus_word in genus[id(rec)] for rec in by_key[key])]
