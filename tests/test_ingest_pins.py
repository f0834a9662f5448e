"""What ingest and segmentation produce is fixed: the sha256 of the
``repr`` of every Lexicon that ``parse_lexf`` reads from the bundled LEXF
files and from ``perfbench/lexgen.py``'s x16 lexicons for seeds 7 and 11,
with the key of each record, and of every ``parse_sense`` result of their
records, must equal the pinned one; so must the segmentation of a few
definitions that the bundled files do not have (parentheses, capitals,
hedges).  ``parse_lexf`` shares one label, status set and R-record sense
key object per distinct text of a file: the cases below check that a
shared value equals the one built field by field, and that an error on a
repeated text still names its first line with its message.  The memos are dicts keyed by
strings, so this runs in CI under two ``PYTHONHASHSEED`` values as well.

When a change alters this output on purpose, print the new hashes with
``PYTHONPATH=src:tests python tests/test_ingest_pins.py`` and review why.
"""
from __future__ import annotations

import hashlib

import pytest

from support import lexgen
from lexigraph import corpus
from lexigraph.lexicon import (
    DefinitionParseError,
    LexfError,
    PartOfSpeech,
    Sense,
    SenseKey,
    SenseLabel,
    parse_definition,
    parse_lexf,
    parse_sense,
)

BUNDLED = ("change_corpus.lexf", "resolutions.lexf", "wordgov_corpus.lexf")
SEEDS = (7, 11)

PINNED = {
    "change_corpus.lexf": {
        "lexicon": "b5ab701add1020454dd6742ad19610a593812c99b1e633a0e0649a76a24715e9",
        "parse": "0874c91e3e02c5e99a150154be0bcce8025734e595216b28bc6a8c1b3168031b"},
    "resolutions.lexf": {
        "lexicon": "33f810aa042342faec9b58d3196208a69dcf38ca7e1393d2107f62815b9e85f3",
        "parse": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"},
    "wordgov_corpus.lexf": {
        "lexicon": "1d25f97547beb3d88030526714675044ec18e4ab34549d9bbd864f5f52d630d1",
        "parse": "a38d6aca30ac7e06fbff89c26949577162830c421b9fcf0608ba93c38553740b"},
    "x16-7": {
        "lexicon": "6d017df182135a8965d87ba34be2f84f0227ccb82cc30e4c01d382edb840e1e4",
        "parse": "6781d9cd4dd78fa36493bb77da2ca67652c4807ed1e74f77b6e5e47993b71cca"},
    "x16-11": {
        "lexicon": "46da129168706caa4548b2b8bd857e908747da8b755d2229fcfadcd8d99b5ac1",
        "parse": "307d88219ff23a669070d0b10031bea7921baabbf52047c5522d5817f1a6360c"},
}
SEGMENTATION = "c9362df5f43c3c9b17ac72aca8923c031ceb1357338dd061ae25bef9bd50dc54"


def source_texts(name: str) -> list[str]:
    if name.startswith("x16-"):
        return lexgen().generate(16, int(name[4:])).texts()
    return [corpus._read(name)]


def stable_repr(lexicon) -> str:
    """``repr`` of a Lexicon with each status set sorted: a frozenset's
    repr lists its members in string-hash order."""
    entries = tuple(s._replace(status=tuple(sorted(s.status)))
                    for s in lexicon.entries)
    return repr(lexicon._replace(entries=entries))


def source_hashes(name: str) -> dict[str, str]:
    lexicons = [parse_lexf(text) for text in source_texts(name)]
    keys = [s.key for lx in lexicons for s in lx.entries]
    parses = [parse_sense(s) for lx in lexicons for s in lx.entries]
    return {
        "lexicon": hashlib.sha256("\n".join(
            [*map(stable_repr, lexicons), repr(keys)]).encode()).hexdigest(),
        "parse": hashlib.sha256(repr(parses).encode()).hexdigest(),
    }


DEFINITIONS = (
    "to move (something) slowly",
    "To Change (of the moon",
    "to change (as in (color)) Into vapor (or steam)",
    "to pass (of time) ) by slowly",
    "to turn Into or become something Usually By heat",
    "to change With or as if with A tool",
    "to become different As If by magic",
    "to grow Or swell esp. Over time or more quickly",
    "TO NOT give up (hope) chiefly From fear",
    "to go out Or in (to (the) sea) Usu. Toward land",
    "to change materially different Sometimes quickly (or not)",
    "(a) b",
    "to",
    "  ",
)


def segmentation_hash() -> str:
    """sha256 of each definition's segmentation, or error, per part of
    speech."""
    out = []
    for text in DEFINITIONS:
        for pos in (PartOfSpeech.VI, PartOfSpeech.VT, PartOfSpeech.NOUN):
            try:
                out.append(repr(parse_definition(text, pos)))
            except DefinitionParseError as exc:
                out.append(f"error: {exc}")
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


def test_segmentation_of_hand_made_definitions_matches_pinned_hash():
    assert segmentation_hash() == SEGMENTATION


SOURCES = BUNDLED + tuple(f"x16-{seed}" for seed in SEEDS)


@pytest.mark.parametrize("name", SOURCES)
def test_ingest_and_segmentation_match_pinned_hashes(name):
    assert source_hashes(name) == PINNED[name]


# each text is bad twice: the error names the first line, with the message
# a file with only that one bad line gives
REPEATED_ERRORS = {
    "label": ("E|a|vi|1\nS|1||to move|\nS|x1||to go|\nS|x1||to run|\n",
              "line 3: bad sense label: 'x1'"),
    "status": ("E|a|vi|1\nS|1|obs|to move|\nS|2|obs,rare|to go|\n"
               "S|3|obs,rare|to run|\n",
               "line 3: unknown status label 'rare'"),
    "entry pos": ("E|a|vq|1\nS|1||to move|\nE|b|vq|1\n",
                  "line 1: bad part of speech 'vq'"),
    "key pos": ("E|a|vi|1\nS|1||to move|\nR|a:vq:1:1|move|a:vi:1:1\n"
                "R|a:vq:1:1|move|a:vi:1:1\n",
                "line 3: bad part of speech in key 'a:vq:1:1'"),
    "key label": ("E|a|vi|1\nS|1||to move|\nR|a:vi:1:x|move|a:vi:1:1\n"
                  "R|a:vi:1:x|move|a:vi:1:1\n",
                  "line 3: bad sense label: 'x'"),
    "key shape": ("E|a|vi|1\nS|1||to move|\nR|a|move|a:vi:1:1\n"
                  "R|a|move|a:vi:1:1\n",
                  "line 3: bad sense key 'a'"),
    "target key": ("E|a|vi|1\nS|1||to move|\nR|a:vi:1:1|move|a:vq:1:1\n"
                   "R|a:vi:1:1|move|a:vq:1:1\n",
                   "line 3: bad part of speech in key 'a:vq:1:1'"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_ERRORS))
def test_repeated_bad_text_fails_on_its_first_line(case):
    text, message = REPEATED_ERRORS[case]
    with pytest.raises(LexfError) as info:
        parse_lexf(text)
    assert str(info.value) == message
    assert info.value.line == int(message.split(":")[0].split()[1])


# a key text that is valid on one R record and reused on a later one whose
# genus word is missing: the later record fails on its own line
def test_reused_key_on_a_bad_record_fails_on_that_record():
    text = ("E|a|vi|1\nS|1||to move|\nR|a:vi:1:1|a|a:vi:1:1\n"
            "R|a:vi:1:1| |a:vi:1:1\n")
    with pytest.raises(LexfError, match=r"^line 4: R record needs a genus word$"):
        parse_lexf(text)


SHARED_TEXT = """\
E|move|vi|1
S|1|obs,field:law|to go slowly|
S|1||to go fast|
S|2|obs,field:law|to go from one place to another|
Y|1|GO|
S|10||to go far|

E|move|vt|1
S|1|obs,field:law|to move something|
F|1|PRED MOVE

R|move:vi:1:2|go|move:vi:1:1
R|move:vi:1:1|go|move:vi:1:10
R|move:vt:1:1|move|move:vi:1:1
"""


def test_shared_values_equal_those_built_field_by_field():
    lx = parse_lexf(SHARED_TEXT)
    status = frozenset({"obs", "field:law"})
    vi, vt = PartOfSpeech.VI, PartOfSpeech.VT
    assert lx.entries == (
        Sense("move", vi, 1, SenseLabel("1"), status, "to go slowly", None, (), 2),
        Sense("move", vi, 1, SenseLabel("1"), frozenset(), "to go fast", None, (), 3),
        Sense("move", vi, 1, SenseLabel("2"), status,
              "to go from one place to another", None, (), 4),
        Sense("move", vi, 1, SenseLabel("1"), frozenset(), "", None, ("GO",), 5),
        Sense("move", vi, 1, SenseLabel("10"), frozenset(), "to go far", None,
              (), 6),
        Sense("move", vt, 1, SenseLabel("1"), status, "to move something",
              None, (), 9),
    )
    assert [s.line for s in lx.entries] == [2, 3, 4, 5, 6, 9]
    assert [s.key for s in lx.entries] == [
        SenseKey("move", vi, 1, "1"), SenseKey("move", vi, 1, "1"),
        SenseKey("move", vi, 1, "2"), SenseKey("move", vi, 1, "1"),
        SenseKey("move", vi, 1, "10"), SenseKey("move", vt, 1, "1")]
    assert all(type(s.label) is SenseLabel for s in lx.entries)
    assert all(type(s.pos) is PartOfSpeech for s in lx.entries)
    assert lx.seed_frames == {SenseKey("move", vt, 1, "1"): ("PRED MOVE",)}
    assert [(r.from_key, r.genus_word, r.target, r.line)
            for r in lx.resolutions] == [
        (SenseKey("move", vi, 1, "2"), "go", SenseKey("move", vi, 1, "1"), 12),
        (SenseKey("move", vi, 1, "1"), "go", SenseKey("move", vi, 1, "10"), 13),
        (SenseKey("move", vt, 1, "1"), "move", SenseKey("move", vi, 1, "1"), 14)]
    # records read from the same texts on another parse are equal values
    assert parse_lexf(SHARED_TEXT) == lx


if __name__ == "__main__":
    for name in SOURCES:
        print(f"    {name!r}: {source_hashes(name)!r},")
    print(f"SEGMENTATION = {segmentation_hash()!r}")
