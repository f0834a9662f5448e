"""Facts kept once per value: a part of speech carries its verb-ness as a
plain attribute, and a sense record holds its key, whether it is a
synonym line, its subject restriction and its usage particles in its
``__dict__`` from the moment it is made, however it is made.  Each equals
the definition it replaced, kept below as a reference."""
from __future__ import annotations

import copy
import pickle
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from lexigraph import lexicon as lexicon_mod
from lexigraph.lexicon import (
    PartOfSpeech,
    Sense,
    SenseKey,
    SenseLabel,
    merge_lexicons,
    parse_lexf,
    parse_sense,
)

FACTS = ("key", "is_synonym_line", "subject_restriction", "usage_particles")


def reference_is_verb(pos: PartOfSpeech) -> bool:
    return pos in (PartOfSpeech.VI, PartOfSpeech.VT, PartOfSpeech.VB)


def reference_accepts_target(pos: PartOfSpeech, target: PartOfSpeech) -> bool:
    if not (reference_is_verb(pos) and reference_is_verb(target)):
        return pos is target
    if pos is PartOfSpeech.VB:
        return True
    return target is pos or target is PartOfSpeech.VB


def reference_facts(rec: Sense) -> tuple:
    """The key and three flags as the record's properties computed them."""
    key = SenseKey(rec.headword, rec.pos, rec.homograph, rec.label.text)
    synonym = bool(rec.synonym_refs) and not rec.raw_definition
    subject = None
    for s in rec.status:
        if s.startswith("subject:"):
            subject = s.split(":", 1)[1]
            break
    particles = ()
    if rec.usage_note:
        m = re.match(r"^(?:usu\.\s+|usually\s+)?used with\s+(.+)$",
                     rec.usage_note.strip())
        if m:
            parts = re.split(r"\s+or\s+|,\s*", m.group(1))
            particles = tuple(p.strip() for p in parts if p.strip())
    return key, synonym, subject, particles


def held_facts(rec: Sense) -> tuple:
    """The facts as the record's ``__dict__`` holds them, read without
    going through an attribute that could compute one."""
    return tuple(vars(rec)[name] for name in FACTS)


def test_part_of_speech_facts_equal_the_old_definitions():
    # an attribute of the member, not a property of the class
    assert "is_verb" in vars(PartOfSpeech.VI)
    for pos in PartOfSpeech:
        assert pos.is_verb == reference_is_verb(pos)
        assert pickle.loads(pickle.dumps(pos)) is pos
        assert PartOfSpeech(pos.value) is pos
        assert repr(pos) == f"<PartOfSpeech.{pos.name}: {pos.value!r}>"
        for target in PartOfSpeech:
            assert (pos.accepts_target(target)
                    == reference_accepts_target(pos, target)), (pos, target)


STATUS_TOKENS = ("obs", "dial", "Brit", "specif", "subject:water",
                 "subject:the moon", "field:instrument")
NOTES = (None, "used with into", "usu. used with up or out",
         "usually used with to, from", "used with  in or on,  at",
         "used with", "used withinto", "obs. used with to", "USED WITH to",
         "used with to or", "used with x, , y", "often used with for")
# as a record made directly may carry it: unstripped, or empty
RAW_NOTES = NOTES + ("", "  used with over  ")

_lines = st.lists(st.tuples(st.booleans(), st.frozensets(st.sampled_from(
    STATUS_TOKENS)), st.sampled_from(NOTES)), min_size=1, max_size=6)


def lexf_text(lines) -> str:
    """An entry with an S or Y line per drawn (synonym, status, note)."""
    rows = ["E|zap|vi|1"]
    for label, (synonym, status, note) in enumerate(lines, start=1):
        if synonym:
            rows.append(f"Y|{label}|MOVE|{note or ''}")
        else:
            rows.append(f"S|{label}|{','.join(sorted(status))}|to move|"
                        f"{note or ''}")
    return "\n".join(rows) + "\n"


# a value of each field, to replace it with
FIELD_VALUES = {
    "headword": st.sampled_from(("zap", "turn over")),
    "pos": st.sampled_from(PartOfSpeech),
    "homograph": st.integers(1, 3),
    "label": st.sampled_from(("1", "2b", "1b(2)")).map(SenseLabel),
    "status": st.frozensets(st.sampled_from(STATUS_TOKENS)),
    "raw_definition": st.sampled_from(("", "to move")),
    "usage_note": st.sampled_from(RAW_NOTES),
    "synonym_refs": st.sampled_from(((), ("MOVE",))),
    "line": st.integers(0, 9),
}
_replacements = st.lists(st.sampled_from(Sense._fields), min_size=1,
                         unique=True).flatmap(
    lambda names: st.fixed_dictionaries({n: FIELD_VALUES[n] for n in names}))


def test_every_field_has_replacement_values():
    assert tuple(FIELD_VALUES) == Sense._fields


def copies(rec: Sense) -> list[Sense]:
    return [copy.copy(rec), copy.deepcopy(rec),
            pickle.loads(pickle.dumps(rec))]


@settings(max_examples=150, deadline=None)
@given(_lines, st.frozensets(st.sampled_from(STATUS_TOKENS)),
       st.sampled_from(RAW_NOTES), st.sampled_from(("", "to move")),
       st.sampled_from(((), ("MOVE",))), _replacements)
def test_record_flags_equal_the_old_property_bodies(lines, status, note,
                                                    definition, refs,
                                                    replacement):
    """Every record holds its facts from the start: one ingested, merged,
    made directly, made by ``_replace`` of any fields, or copied or
    pickled from any of those."""
    text = lexf_text(lines)
    parsed = parse_lexf(text).entries
    merged = merge_lexicons(parse_lexf(text),
                            parse_lexf("E|thing|n|1\nS|1||a thing|\n")).entries
    made = Sense("zap", PartOfSpeech.VT, 1, SenseLabel("1"), status,
                 definition, note, refs)
    replaced = [rec._replace(**replacement) for rec in (made, *parsed)]
    records = [*parsed, *merged, made, *replaced]
    for rec in records:
        assert type(rec) is Sense
        assert vars(rec).keys() == set(FACTS)
        assert held_facts(rec) == reference_facts(rec)
        # a copy holds the facts of the record it copies: with two subject
        # labels, a rebuilt status set may iterate in another order, and
        # the reference would then pick the other one
        for c in copies(rec):
            assert type(c) is Sense and tuple(c) == tuple(rec)
            assert vars(c).keys() == set(FACTS)
            assert held_facts(c) == held_facts(rec)
    for rec in replaced:
        assert {n: getattr(rec, n) for n in replacement} == replacement


def test_parse_sense_segments_a_record_once(monkeypatch):
    segmented = []
    real = lexicon_mod.parse_definition

    def counted(text, pos):
        segmented.append(text)
        return real(text, pos)

    monkeypatch.setattr(lexicon_mod, "parse_definition", counted)
    lx = parse_lexf("E|zap|vi|1\nS|1||to move into|\nY|2|MOVE|\n")
    for rec in lx.entries:
        first = parse_sense(rec)
        assert parse_sense(rec) is first
        # the parse is the one fact a record keeps after it is made
        assert vars(rec).keys() == {*FACTS, "_parsed"}
    assert parse_sense(lx.entries[1]) is None
    assert segmented == ["to move into"]
    # a record made by ``_replace`` is a new record, with no parse yet
    moved = lx.entries[0]._replace(raw_definition="to move slowly")
    assert parse_sense(moved).genus == ("move",)
    assert segmented == ["to move into", "to move slowly"]
