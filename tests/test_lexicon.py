from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import HEADWORDS, PHRASAL_LEXF, lexf_texts, lexgen
from lexigraph import corpus
from lexigraph.defgraph import build_graph
from lexigraph.lexicon import (
    CHUNKING_PREPS,
    DefinitionParseError,
    LexfError,
    PartOfSpeech,
    Sense,
    SenseKey,
    SenseLabel,
    _label_parts,
    genus_words,
    merge_lexicons,
    parse_definition,
    parse_lexf,
    parse_sense,
    senses_of,
    split_alternatives,
)
from lexigraph.corpus import corpus_text
from lexigraph.lexf_writer import serialize_lexf


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


def test_round_trip(lexicon):
    text = serialize_lexf(lexicon)
    again = parse_lexf(text)
    assert again == lexicon


def test_round_trip_is_stable(lexicon):
    once = serialize_lexf(lexicon)
    twice = serialize_lexf(parse_lexf(once))
    assert once == twice


def test_sense_label_parent_chain():
    assert SenseLabel("1b(2)").parent() == SenseLabel("1b")
    assert SenseLabel("1b").parent() == SenseLabel("1")
    assert SenseLabel("1").parent() is None
    assert [a.text for a in SenseLabel("1b(2)").ancestors()] == ["1b", "1"]


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
@given(st.from_regex(r"\d+[a-z]?(\(\d+\))?", fullmatch=True))
def test_label_parts_memo_equals_a_fresh_parse(label):
    fresh = _label_parts.__wrapped__(label)   # the regex match, unmemoized
    assert _label_parts(label) == fresh
    assert _label_parts(label) == fresh       # a memo hit


@pytest.mark.parametrize("text, error", [
    ("E|change|vi|1\nS|1||to vary|\nS|b1||to vary|\n",
     "line 3: bad sense label: 'b1'"),
    ("E|change|vi|1\nS|1||to vary|\nR|change:vi:1:1(x)|vary|change:vi:1:1\n",
     "line 3: bad sense label: '1(x)'"),
])
def test_bad_label_fails_alike_on_every_ingest(text, error):
    # a failed label parse is not memoized: the second ingest of the same
    # text raises the same error at the same line
    for _ in range(2):
        with pytest.raises(LexfError) as err:
            parse_lexf(text)
        assert (str(err.value), err.value.line) == (error, 3)


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
    text = corpus_text()
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
        got = lx.records_for(key)
        assert got == expected and [s.line for s in got] == [s.line for s in expected]
        got.clear()   # a fresh list each call
        assert lx.records_for(key) == expected
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
        warm.records_for(key)
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
    again = parse_lexf(corpus_text())
    assert parse_sense(again.entries[0]) is not parse_sense(lexicon.entries[0])


@pytest.mark.parametrize("source", ["corpus", 7, 11])
def test_sense_keys_sort_as_by_the_pos_value(source):
    """``SenseKey.sort_key`` holds the part of speech, a str enum, where it
    held its value: every sense key and every external node of the bundled
    corpus and of the x16 lexicons sorts as it did."""
    if source == "corpus":
        lx = corpus.load_corpus(include_word_government=True)
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
