from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    HEADWORDS,
    PHRASAL_LEXF,
    lexf_texts,
    lexgen,
    serialize_lexf,
    wordgov_corpus,
)
from lexigraph import corpus
from lexigraph.defgraph import build_graph
from lexigraph.lexicon import (
    CHUNKING_PREPS,
    HEDGE_WORDS,
    DefinitionParseError,
    LexfError,
    Lexicon,
    ParsedDefinition,
    PartOfSpeech,
    Phrase,
    Sense,
    SenseKey,
    SenseLabel,
    _is_adverb,
    _label_ancestors,
    _label_parts,
    _parse_sense_key,
    genus_words,
    merge_lexicons,
    parse_definition,
    parse_lexf,
    parse_sense,
    senses_of,
    split_alternatives,
)
from lexigraph.corpus import _read


def test_minimal_entry():
    lx = parse_lexf("E|change|vi|1\n"
                    "S|1||become different in one or more respects without "
                    "becoming something else|\n")
    assert len(lx.entries) == 1
    sense = lx.entries[0]
    assert sense.label.text == "1"
    assert sense.pos is PartOfSpeech.VI
    assert sense.homograph == 1


def test_empty_input_gives_empty_lexicon():
    lx = parse_lexf("")
    assert lx.entries == ()
    assert lx.resolutions == ()


def test_bundled_corpus_counts(lexicon):
    change = senses_of(lexicon, "change", PartOfSpeech.VI)
    assert len({s.label.text for s in change}) == 19
    using = {s.key for s in lexicon.entries
             if s.pos.is_verb and s.headword != "change"}
    assert len(using) == 47


@pytest.mark.parametrize("bad, message", [
    ("X|what|now", "unknown record kind"),
    ("E|change|vi", "E record needs"),
    ("E|change|zz|1", "bad part of speech"),
    ("S|1||orphan definition|", "outside an entry"),
    ("E|change|vi|1\nS|bogus||text|", "bad sense label"),
    ("E|change|vi|1\nE|change|vi|1", "duplicate entry"),
    ("E|change|vi|1\nS|1||a def|\nS|1||a def|", "duplicate sense record"),
    ("E|change|vi|1\nF|2|PRED X", "unknown sense"),
    ("R|a:vi:1|x", "R record needs"),
])
def test_ingestion_errors_carry_line_numbers(bad, message):
    with pytest.raises(LexfError) as err:
        parse_lexf(bad)
    assert message in str(err.value)
    assert "line" in str(err.value)


# a line with several faults reports the first of them: outside an entry
# before its field count, a synonym before its label, and a label before
# its definition and then its status
FIRST_ERRORS = [
    ("Y|1", "line 1: Y record outside an entry"),
    ("F|x", "line 1: F record outside an entry"),
    ("S|x|rare", "line 1: S record outside an entry"),
    ("E|a|vi|1\nS|x|rare", "line 2: S record needs label|status|definition|[note]"),
    ("E|a|vi|1\nS|1||a|b|c", "line 2: S record needs label|status|definition|[note]"),
    ("E|a|vi|1\nY|x", "line 2: Y record needs label|SYNONYM|[note]"),
    ("E|a|vi|1\nY|1|GO|n|m", "line 2: Y record needs label|SYNONYM|[note]"),
    ("E|a|vi|1\nF|x", "line 2: F record needs label|seed-line"),
    ("E|a|vi|1\nF|1|", "line 2: F record needs label|seed-line"),
    ("E|a|vi|1|2", "line 1: E record needs headword|pos|homograph"),
    ("E||vi|1\nS|1||to go|", "line 1: E record needs a headword"),
    ("E| |vi|1", "line 1: E record needs a headword"),
    ("E|a|vq|0", "line 1: bad part of speech 'vq'"),
    ("E|a|vi|0", "line 1: bad homograph '0'"),
    ("E|a|vi|01\nE|a|vi|1", "line 2: duplicate entry a:vi:1"),
    ("E|a|vi|1\nY|x|go", "line 2: synonym must be a single uppercase word: 'go'"),
    ("E|a|vi|1\nY|x|", "line 2: synonym must be a single uppercase word: ''"),
    ("E|a|vi|1\nY|x|GO", "line 2: bad sense label: 'x'"),
    ("E|a|vi|1\nS|x|rare| |", "line 2: bad sense label: 'x'"),
    ("E|a|vi|1\nS|1|rare| |", "line 2: empty definition on S record"),
    ("E|a|vi|1\nS|1|rare|to go|", "line 2: unknown status label 'rare'"),
    ("E|a|vi|1\nS|1||to go|n\nS|1|obs| to go | n ",
     "line 3: duplicate sense record a:vi:1:1"),
    ("E|a|vi|1\nY|1|GO\nY|1|GO|", "line 3: duplicate synonym record a:vi:1:1"),
    ("E|a|vi|1\nS|1||GO|\nY|1|GO", "line 3: duplicate synonym record a:vi:1:1"),
    ("E|a|vi|1\nR|a:vi:1:x|go", "line 2: R record needs from|genus|to"),
    ("E|a|vi|1\nR|a:vi:1:x|go|a:vq:1", "line 2: bad sense label: 'x'"),
    ("X|a", "line 1: unknown record kind 'X'"),
    ("E|a|vi|1\nY|1|GO AWAY, 2",
     "line 2: synonym must be a single uppercase word: 'GO AWAY, 2'"),
    pytest.param("E|a|vi|1\nS|" + "1" * 4301 + "||to go|",
                 "line 2: bad sense label: '" + "1" * 4301 + "'",
                 id="a-label-of-4301-digits"),
]


@pytest.mark.parametrize("text, error", FIRST_ERRORS)
def test_a_bad_line_reports_its_first_error(text, error):
    with pytest.raises(LexfError) as err:
        parse_lexf(text)
    assert str(err.value) == error


def test_round_trip(lexicon):
    text = serialize_lexf(lexicon)
    again = parse_lexf(text)
    assert again == lexicon


def test_round_trip_is_stable(lexicon):
    once = serialize_lexf(lexicon)
    twice = serialize_lexf(parse_lexf(once))
    assert once == twice


def test_sense_label_parent_chain():
    assert _label_ancestors("1b(2)") == ("1b", "1")
    assert _label_ancestors("1b") == ("1",)
    assert _label_ancestors("1") == ()


def test_a_label_with_a_final_newline_is_rejected():
    """``$`` matches before a final newline: the label check matches the
    whole text, so such a label, and a sense key ending in one, fail."""
    with pytest.raises(ValueError, match="bad sense label"):
        SenseLabel("1b\n")
    with pytest.raises(LexfError, match=r"line 1: bad sense label: '2b\\n'"):
        _parse_sense_key("change:vi:1:2b\n", 1)
    assert _parse_sense_key("change:vi:1:2b", 1).render() == "change:vi:1:2b"


def test_sense_key_sort_key():
    key = SenseKey("change", PartOfSpeech.VI, 1, "1b(2)")
    assert key.sort_key() == ("change", "vi", 1, (1, "b", 2))
    with pytest.raises(ValueError, match="bad sense label"):
        SenseKey("change", PartOfSpeech.VI, 1, "b1").sort_key()
    keys = [SenseKey("change", PartOfSpeech.VI, 1, label)
            for label in ("10", "2", "1b(10)", "1b(2)")]
    assert sorted(keys, key=SenseKey.sort_key) == [keys[3], keys[2], keys[1],
                                                   keys[0]]


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"[0-9]+[a-z]?(\([0-9]+\))?", fullmatch=True))
def test_label_parts_memo_equals_a_fresh_parse(label):
    fresh = _label_parts.__wrapped__(label)   # the regex match, unmemoized
    assert _label_parts(label) == fresh
    assert _label_parts(label) == fresh       # a memo hit


@pytest.mark.parametrize("text, error", [
    ("E|change|vi|1\nS|1||to vary|\nS|b1||to vary|\n",
     "line 3: bad sense label: 'b1'"),
    ("E|change|vi|1\nS|1||to vary|\nR|change:vi:1:1(x)|vary|change:vi:1:1\n",
     "line 3: bad sense label: '1(x)'"),
    # a label's digits are ASCII: `\d` took ARABIC-INDIC DIGIT ONE too
    ("E|change|vi|1\nS|1||to vary|\nS|1\u0661||to vary|\n",
     "line 3: bad sense label: '1\u0661'"),
    ("E|change|vi|1\nS|1||to vary|\nY|\u0661|VARY\n",
     "line 3: bad sense label: '\u0661'"),
    ("E|change|vi|1\nS|1||to vary|\nF|1(\u0661)|PRED VARY\n",
     "line 3: bad sense label: '1(\u0661)'"),
    ("E|change|vi|1\nS|1||to vary|\nR|change:vi:1:1|vary|change:vi:1:\u0661\n",
     "line 3: bad sense label: '\u0661'"),
])
def test_bad_label_fails_alike_on_every_ingest(text, error):
    # a failed label parse is not memoized: the second ingest of the same
    # text raises the same error at the same line
    for _ in range(2):
        with pytest.raises(LexfError) as err:
            parse_lexf(text)
        assert (str(err.value), err.value.line) == (error, 3)


# the bar fields of each record kind that hold a label, a homograph or
# a sense key
NUMBERED_FIELDS = {"E": (3,), "S": (1,), "Y": (1,), "F": (1,), "R": (1, 3)}
# digits of other scripts: ARABIC-INDIC ONE is a decimal digit, which
# ``int`` reads; SUPERSCRIPT TWO and CIRCLED DIGIT ONE pass ``isdigit``
# and fail in ``int``
DIGITS = "019\u0661\u00b2\u2460"
FIELD_TEXTS = st.one_of(
    st.text(),
    st.text(st.sampled_from(DIGITS), min_size=1, max_size=3),
    st.tuples(st.text(st.sampled_from(DIGITS), min_size=1, max_size=2),
              st.sampled_from(("", "a", "b(1)", "(\u0661)"))).map("".join))


@st.composite
def lexf_with_a_number_field_replaced(draw) -> str:
    """A ``lexf_texts()`` text with one label, homograph or R-key field,
    or one colon part of an R key, replaced by drawn text."""
    lines = draw(lexf_texts()).splitlines()
    i, f = draw(st.sampled_from([
        (i, f) for i, line in enumerate(lines)
        for f in NUMBERED_FIELDS.get(line[:1], ())]))
    fields = lines[i].split("|")
    new = draw(FIELD_TEXTS)
    if fields[0] == "R" and draw(st.booleans()):
        parts = fields[f].split(":")
        parts[draw(st.integers(0, len(parts) - 1))] = new
        new = ":".join(parts)
    fields[f] = new
    lines[i] = "|".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(lexf_with_a_number_field_replaced())
@example("E|alpha|vi|\u00b2\nS|1||to move|\n")
@example("E|alpha|vi|1\nS|1||to move|\nR|alpha:vi:\u2460:1|move|alpha:vi:1\n")
@example("E|alpha|vi|" + "1" * 4301 + "\nS|1||to move|\n")
def test_any_number_field_ends_in_a_lexicon_or_a_line_error(text):
    """Whatever a label, homograph or R-key field holds, Unicode digits
    included, ingest returns a Lexicon or raises a LexfError that names
    its line, never another exception."""
    try:
        lexicon = parse_lexf(text)
    except LexfError as exc:
        assert exc.line is not None
        assert str(exc).startswith(f"line {exc.line}: ")
    else:
        assert isinstance(lexicon, Lexicon)


def test_genus_words_keep_listed_phrases_whole():
    lx = parse_lexf(PHRASAL_LEXF + "E|leave|vi|1\nS|1||to give up hope|\n"
                    "E|stay|vi|1\nS|1||to hang up for good|\nY|2|REMAIN\n")
    words = {s.key.headword + ":" + s.label.text: genus_words(s, lx)
             for s in lx.entries}
    assert words["quit:1"] == ["give up"]          # "give up" is a headword
    assert words["stay:1"] == ["hang"]             # "hang up" is not
    assert words["stay:2"] == ["remain"]           # synonym reference
    assert words["give:1"] == ["hand"]             # "hand over": not listed
    assert words["leave:1"] == ["give"]            # "up hope" is no particle


def test_parse_definition_coalify_row():
    p = parse_definition("change into coal by the process of coalification",
                         PartOfSpeech.VB)
    assert p.genus == ("change",)
    assert [(d.prep, d.text) for d in p.differentiae] == [
        ("into", "coal"), ("by", "the process of coalification")]


def test_parse_definition_specified_object():
    p = parse_definition(
        "to clear (water) from a boat by dipping and throwing over the side",
        PartOfSpeech.VT)
    assert p.genus == ("clear",)
    assert p.specified_object == "water"


def test_parse_definition_negation():
    p = parse_definition("not change", PartOfSpeech.VI)
    assert p.genus == ("change",)
    assert p.negated is True
    assert p.differentiae == ()


def test_parse_definition_coordination():
    p = parse_definition("pale or blush", PartOfSpeech.VI)
    assert p.genus == ("pale", "blush")
    p = parse_definition("turn into or become something materially different "
                         "from before", PartOfSpeech.VI)
    assert p.genus == ("turn", "become")
    assert p.genus_complement == "something materially different"


def test_parse_definition_complement_and_subject_use():
    p = parse_definition("become different in one or more respects without "
                         "becoming something else", PartOfSpeech.VI)
    assert p.genus == ("become",)
    assert p.genus_complement == "different"
    assert [(d.prep, d.text) for d in p.differentiae] == [
        ("in", "one or more respects"), ("without", "becoming something else")]
    assert not p.transitive_use


def test_parse_definition_hedged_phrases():
    p = parse_definition("change from a solid to a liquid state usu. by the "
                         "action of heat", PartOfSpeech.VI)
    by = [d for d in p.differentiae if d.prep == "by"]
    assert by and by[0].hedged
    p = parse_definition("change with or as if with the wind", PartOfSpeech.VI)
    assert [(d.prep, d.text, d.hedged) for d in p.differentiae] == [
        ("with", "the wind", True)]


def test_parse_definition_requires_verb_head():
    with pytest.raises(DefinitionParseError):
        parse_definition("of the", PartOfSpeech.VI)
    with pytest.raises(DefinitionParseError):
        parse_definition("   ", PartOfSpeech.VI)


# tokens that steer segmentation: heads, particles, coordinators,
# prepositions, hedges, adverbs and parentheses, whole or split
DEFINITION_TOKENS = (
    "to", "not", "change", "give", "up", "be", "or", "and", "as", "if", "of",
    "into", "with", "from", "in", "by", "a", "the", "something", "esp.",
    "usually", "slowly", "(", ")", "(one's", "hair)", "(x)", "to be", ".")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(DEFINITION_TOKENS),
                                     max_size=8).map(" ".join)),
       st.sampled_from(PartOfSpeech))
def test_parse_definition_raises_only_its_own_error(text, pos):
    try:
        parse_definition(text, pos)
    except DefinitionParseError:
        pass


# the tokens the segmenter tests for, some in mixed case: prepositions,
# coordinators, "as if" (and "with or as if with", which it reads as one
# hedged phrase), hedges and other adverbs, parentheticals whole and split,
# the negation and infinitive marker, particles, wh-words, determiners and
# object openers, copular and other heads
SEGMENT_TOKENS = (
    "into", "to", "from", "in", "by", "with", "within", "between", "for",
    "against", "on", "at", "through", "over", "upon", "toward", "without",
    "under", "about", "of", "or", "and", "as", "if", "with or as if with",
    "into or as if into", "usu.", "usually", "often", "esp.", "especially",
    "sometimes", "chiefly", "more", "less", "very", "too", "slowly", "fly",
    "(x)", "(one's hair)", "(", "one's", "hair)", "(a", "b)", "not", "up",
    "out", "off", "round", "down", "away", "what", "whatever", "who",
    "which", "a", "an", "the", "one", "some", "its", "something", "oneself",
    "itself", "be", "become", "turn", "grow", "get", "remain", "change",
    "give", "move", "things", "state", "x", "Into", "OR", "As", "IF",
    "Usually", "The", "Be", "Up", "(X)", "Slowly", "Not", "To", "What")

SEGMENTATION_PINS = {
    "corpora":
        "a05f952a9055c611e0e33eabc60b2a97d30db0efb1c606d1a0ed4b4dee244f7e",
    "random":
        "5d590ba6b0e8f496f0245b4de4e69074233644e76b30ee24c30f5c51f4e69990"}


def _segmentation_digest(texts) -> str:
    """sha256 of what ``parse_definition`` gives each text under vi, vt,
    vb and n: the ``repr`` of its parse, or its exception's type and
    message."""
    digest = hashlib.sha256()
    for text in texts:
        for pos in (PartOfSpeech.VI, PartOfSpeech.VT, PartOfSpeech.VB,
                    PartOfSpeech.NOUN):
            try:
                out = repr(parse_definition(text, pos))
            except Exception as exc:  # pinned, whatever it is
                out = f"{type(exc).__name__}: {exc}"
            digest.update(f"{out}\n".encode())
    return digest.hexdigest()


def test_segmentation_of_the_corpora_is_pinned():
    """Every S-line definition of the bundled corpora and of the x16
    lexicons for seeds 7 and 11 segments as it did."""
    texts = [_read(name) for name in
             ("change_corpus.lexf", "wordgov_corpus.lexf")]
    for seed in (7, 11):
        texts += lexgen().generate(16, seed).texts()
    definitions = [s.raw_definition for text in texts
                   for s in parse_lexf(text).entries if s.raw_definition]
    assert _segmentation_digest(definitions) == SEGMENTATION_PINS["corpora"]


def test_segmentation_of_token_sequences_is_pinned():
    """20,000 seeded sequences of 1 to 12 segmenter tokens segment as they
    did."""
    rng = random.Random(30)
    texts = [" ".join(rng.choice(SEGMENT_TOKENS)
                      for _ in range(rng.randint(1, 12)))
             for _ in range(20_000)]
    assert _segmentation_digest(texts) == SEGMENTATION_PINS["random"]


def test_every_hedge_word_is_an_adverb():
    assert all(_is_adverb(word) for word in HEDGE_WORDS)


def test_parse_definition_total_over_corpus(lexicon):
    for sense in lexicon.entries:
        if not sense.pos.is_verb or sense.is_synonym_line:
            continue
        parsed = parse_sense(sense)
        assert parsed.genus, sense.raw_definition


def test_coordination_split_counts(lexicon):
    # heads = 1 + number of top-level coordinators among the verb heads
    cases = {
        "lose or acquire some characteristic, property, or tendency": 2,
        "increase or decrease": 2,
        "disrobe and rearray oneself more suitably": 2,
        "pass from one form, appearance, position, state, or stage to another": 1,
    }
    for text, heads in cases.items():
        assert len(parse_definition(text, PartOfSpeech.VI).genus) == heads


@pytest.mark.parametrize("text,differentia", [
    ("change or the like", Phrase("clause", "the like")),
    ("move or to go", Phrase("prep-phrase", "go", "to")),
    ("alter or 5 things", Phrase("clause", "5 things")),
])
def test_a_coordinate_that_is_no_head_ends_the_genus(text, differentia):
    # each coordinate is checked as the first head is: these once gave the
    # genus words "the", "to" and "5", and the rest as complement or object
    parsed = parse_definition(text, PartOfSpeech.VI)
    assert parsed == ParsedDefinition(genus=(text.split()[0],),
                                      differentiae=(differentia,))


def test_senses_of_queries(lexicon):
    assert len(senses_of(lexicon, "zzz", PartOfSpeech.VI)) == 0
    vi = senses_of(lexicon, "change", PartOfSpeech.VI)
    all_pos = senses_of(lexicon, "change")
    assert {s.key for s in vi} <= {s.key for s in all_pos}
    # file order preserved
    lines = [s.line for s in vi]
    assert lines == sorted(lines)


def test_homographs_are_distinct():
    lx = parse_lexf("E|bore|vt|1\nS|1||pierce with a drill|\n"
                    "E|bore|vt|2\nS|1||weary with dullness|\n")
    assert len(senses_of(lx, "bore")) == 2
    keys = {s.key for s in lx.entries}
    assert len(keys) == 2


def test_usage_note_parsing():
    def particles(note):
        return Sense("w", PartOfSpeech.VI, 1, SenseLabel("1"),
                     usage_note=note).usage_particles

    assert particles("used with into") == ("into",)
    assert particles("used with into or to") == ("into", "to")
    assert particles("usu. used with against") == ("against",)
    assert particles("used of the moon") == ()
    assert particles(None) == ()


def test_split_alternatives():
    assert split_alternatives("form, appearance, position, state, or stage") == (
        "form", "appearance", "position", "state", "stage")
    assert split_alternatives("caramel or a caramellike substance or color") == (
        "caramel", "caramellike substance", "color")


def test_phrasal_headword_entries(lexicon):
    assert senses_of(lexicon, "chop and change")
    assert senses_of(lexicon, "come over")


def test_corpus_definition_strings_verbatim():
    text = _read("change_corpus.lexf")
    for needle in [
        "become different in one or more respects without becoming something else",
        "lose or acquire some characteristic, property, or tendency",
        "pass from one form, appearance, position, state, or stage to another",
        "turn into or become something materially different from before",
        "undergo transformation or conversion",
        "change into coal by the process of coalification",
        "change from a solid to a liquid state usu. by the action of heat",
        "change gradually in loudness or visibility",
        "not change",
    ]:
        assert needle in text


# ---------------------------------------------------------------------------
# the lexicon's indexes against their linear-scan definitions

def _first_seen(values) -> list:
    return list(dict.fromkeys(values))


@settings(max_examples=80, deadline=None)
@given(lexf_texts())
def test_indexes_equal_linear_scans(text):
    lx = parse_lexf(text)
    entries = lx.entries
    keys = _first_seen(s.key for s in entries)
    assert lx.sense_keys() == keys
    sorted_keys = sorted(keys, key=SenseKey.sort_key)
    assert lx._sorted_keys == sorted_keys
    # the keys of a headword are one run of the sorted keys, so the
    # headwords come sorted
    words = sorted({s.headword for s in entries})
    assert lx.headwords() == words
    assert list(lx._by_headword.items()) == [
        (word, [k for k in sorted_keys if k.headword == word])
        for word in words]
    absent = SenseKey("zzz", PartOfSpeech.VI, 1, "1")
    for key in keys + [absent]:
        expected = [s for s in entries if s.key == key]
        got = lx._by_key.get(key, [])
        assert got == expected and [s.line for s in got] == [s.line for s in expected]
    for word in HEADWORDS + ("zzz",):
        assert lx.has_headword(word) == any(s.headword == word for s in entries)
        for pos in (None, *PartOfSpeech):
            # the word's keys in sorted order, a key's records in file order
            expected = [s for k in sorted_keys
                        if k.headword == word and (pos is None or k.pos is pos)
                        for s in entries if s.key == k]
            got = senses_of(lx, word, pos)
            assert got == expected
            assert [s.line for s in got] == [s.line for s in expected]
    assert lx.verb_headwords == {s.headword for s in entries if s.pos.is_verb}
    assert lx.chunking_preps == {s.headword for s in entries
                                 if s.pos is PartOfSpeech.PREP} | CHUNKING_PREPS


@settings(max_examples=80, deadline=None)
@given(lexf_texts())
def test_warmed_lexicon_equals_fresh_parse(text):
    warm = parse_lexf(text)
    for key in warm.sense_keys():
        warm._by_key[key]
    for word in warm.headwords():
        senses_of(warm, word)
    for sense in warm.entries:
        parse_sense(sense)
    assert warm.verb_headwords is not None and warm.chunking_preps is not None
    fresh = parse_lexf(text)
    assert warm == fresh
    assert serialize_lexf(warm) == serialize_lexf(fresh)
    assert parse_lexf(serialize_lexf(warm)) == fresh


def test_parse_sense_memoized_per_record(lexicon):
    for sense in lexicon.entries:
        parsed = parse_sense(sense)
        assert parse_sense(sense) is parsed
        if sense.is_synonym_line:
            assert parsed is None
        else:
            assert parsed == parse_definition(sense.raw_definition, sense.pos)
    # an equal record from a fresh parse carries its own memo
    again = parse_lexf(_read("change_corpus.lexf"))
    assert parse_sense(again.entries[0]) is not parse_sense(lexicon.entries[0])


@pytest.mark.parametrize("source", ["corpus", 7, 11])
def test_sense_keys_sort_as_by_the_pos_value(source):
    """``SenseKey.sort_key`` holds the part of speech, a str enum, where it
    held its value: every sense key and every external node of the bundled
    corpus and of the x16 lexicons sorts as it did."""
    if source == "corpus":
        lx = wordgov_corpus()
    else:
        lx = merge_lexicons(*(parse_lexf(t) for t in
                              lexgen().generate(16, source).texts()))
    nodes = sorted(set(lx.sense_keys()) | build_graph(lx).nodes,
                   key=lambda n: n.render())
    assert any(n.pos is None for n in nodes)

    def by_value(node) -> tuple:
        if node.pos is None:
            return node.sort_key()
        return (node.headword, node.pos.value, node.homograph,
                _label_parts(node.label))

    assert ([n.render() for n in sorted(nodes, key=lambda n: n.sort_key())]
            == [n.render() for n in sorted(nodes, key=by_value)])
    tags = {pos: pos.value for pos in PartOfSpeech} | {"~external": "~external"}
    for a, a_value in tags.items():
        for b, b_value in tags.items():
            assert (a < b, a == b) == (a_value < b_value, a_value == b_value)
