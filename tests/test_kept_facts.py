"""Facts kept once per value: a part of speech carries its verb-ness as a
plain attribute, and a sense record keeps whether it is a synonym line, its
subject restriction and its usage particles in its ``__dict__``, written by
``parse_lexf`` or computed on the first read of a record made any other
way.  Each equals the definition it replaced, kept below as a reference."""
from __future__ import annotations

import pickle
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from lexigraph.lexicon import (
    PartOfSpeech,
    Sense,
    SenseLabel,
    merge_lexicons,
    parse_lexf,
)

FLAGS = ("is_synonym_line", "subject_restriction", "usage_particles")


def reference_is_verb(pos: PartOfSpeech) -> bool:
    return pos in (PartOfSpeech.VI, PartOfSpeech.VT, PartOfSpeech.VB)


def reference_accepts_target(pos: PartOfSpeech, target: PartOfSpeech) -> bool:
    if not (reference_is_verb(pos) and reference_is_verb(target)):
        return pos is target
    if pos is PartOfSpeech.VB:
        return True
    return target is pos or target is PartOfSpeech.VB


def reference_flags(rec: Sense) -> tuple:
    """The three flags as the record's properties computed them."""
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
    return synonym, subject, particles


def flags(rec: Sense) -> tuple:
    return tuple(getattr(rec, name) for name in FLAGS)


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


@settings(max_examples=150, deadline=None)
@given(_lines, st.frozensets(st.sampled_from(STATUS_TOKENS)),
       st.sampled_from(RAW_NOTES), st.sampled_from(("", "to move")),
       st.sampled_from(((), ("MOVE",))))
def test_record_flags_equal_the_old_property_bodies(lines, status, note,
                                                    definition, refs):
    text = lexf_text(lines)
    parsed = parse_lexf(text).entries
    merged = merge_lexicons(parse_lexf(text),
                            parse_lexf("E|thing|n|1\nS|1||a thing|\n")).entries
    for rec in parsed + merged:
        # written at ingest, where the key is
        assert {"key", *FLAGS} <= vars(rec).keys()
        assert flags(rec) == reference_flags(rec)
    made = Sense("zap", PartOfSpeech.VT, 1, SenseLabel("1"), status,
                 definition, note, refs)
    replaced = [rec._replace(status=status, usage_note=note,
                             raw_definition=definition, synonym_refs=refs)
                for rec in parsed]
    for rec in [made] + replaced:
        # computed on the first read, then kept
        assert not set(FLAGS) & vars(rec).keys()
        assert flags(rec) == reference_flags(rec)
        assert {name: vars(rec)[name] for name in FLAGS} == dict(
            zip(FLAGS, reference_flags(rec)))
