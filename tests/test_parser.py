from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from support import (
    FAMILY1,
    FAMILY2,
    GENUS_WORDS,
    PHRASAL_LEXF,
    accepted,
    change_key,
    family_rules_text,
    lexf_texts,
    slot_trees,
    use_lexf_texts,
)
from lexigraph import corpus
from lexigraph.cli import run as cli_run
from lexigraph.autoresolve import _GenusTable, _propose, autoresolve_all
from lexigraph.frames import (
    Descriptor,
    Frame,
    Slot,
    UseDelta,
    _apply_use_to,
    _entry_path,
    build_frames,
    essential_change,
    find_slot,
    update_slot,
)
from lexigraph.lexicon import (
    ParsedDefinition,
    PartOfSpeech,
    Phrase,
    SenseKey,
    genus_words,
    parse_lexf,
)
from lexigraph.parser import (
    MANDATORY_SLOTS,
    Chunk,
    ChunkError,
    ContextOracle,
    SentenceContext,
    VarAllocator,
    _instantiate,
    chunk_sentence,
    disambiguate,
    parse_discourse,
    results_to_tsv,
)
from lexigraph.prep_rules import load_rule_table
from lexigraph.ssn import build_all_ssns


def run(text, lexicon, ssns, frames, rules):
    chunks = chunk_sentence(text, lexicon)
    ctx = SentenceContext(chunks)
    verb = ctx.verb
    return disambiguate(verb.text, chunks, ssns[verb.lemma], frames, rules,
                        lexicon, VarAllocator())


# ---------------------------------------------------------------------------
# chunking

def test_chunk_basic(lexicon):
    chunks = chunk_sentence("The milk changed into curd", lexicon)
    assert [(c.kind, c.prep, c.text) for c in chunks] == [
        ("noun-phrase", None, "the milk"),
        ("verb", None, "changed"),
        ("prep-phrase", "into", "curd")]
    assert chunks[1].lemma == "change"


def test_chunk_pronoun_subject(lexicon):
    chunks = chunk_sentence("It turned into vapor", lexicon)
    assert [(c.kind, c.prep, c.text) for c in chunks] == [
        ("noun-phrase", None, "it"),
        ("verb", None, "turned"),
        ("prep-phrase", "into", "vapor")]


def test_chunk_empty_errors(lexicon):
    with pytest.raises(ChunkError):
        chunk_sentence("", lexicon)
    with pytest.raises(ChunkError):
        chunk_sentence(" ... ?! ", lexicon)


def test_chunk_without_known_verb(lexicon):
    chunks = chunk_sentence("The cat sat on the mat", lexicon)
    assert all(c.kind != "verb" for c in chunks)


def test_chunks_partition_tokens(lexicon):
    text = "The milk changed into curd"
    chunks = chunk_sentence(text, lexicon)
    rebuilt = " ".join(
        (c.prep + " " + c.text if c.kind == "prep-phrase" else c.text)
        for c in chunks)
    assert rebuilt == text.lower()


def test_chunk_drops_a_coordinator_before_a_preposition(lexicon):
    for text, prep, first, second in (
            ("The milk changed into curd or into cheese", "into", "curd",
             "cheese"),
            ("The water changed in color, or in shape", "in", "color",
             "shape"),
            ("The water changed in color and in shape", "in", "color",
             "shape")):
        chunks = chunk_sentence(text, lexicon)
        assert [(c.kind, c.prep, c.text) for c in chunks[2:]] == [
            ("prep-phrase", prep, first), ("prep-phrase", prep, second)]
    # a coordinator inside one phrase stays in it
    chunks = chunk_sentence("The water changed in color or shape", lexicon)
    assert chunks[2] == ("prep-phrase", "color or shape", "in", None)


def test_chunk_reads_the_segmenters_adverbs(lexicon, ssns, frames, rules):
    # "often" is an adverb word of definitions (``lexicon.ADVERB_WORDS``),
    # so the chunker reads it as one too: a manner before the verb, not
    # part of the subject, and after it, not the object
    chunks = chunk_sentence("The wind often changed", lexicon)
    assert [(c.kind, c.text) for c in chunks] == [
        ("noun-phrase", "the wind"), ("adverb", "often"),
        ("verb", "changed")]
    for text in ("The wind often changed", "The wind changed often"):
        r = run(text, lexicon, ssns, frames, rules)
        assert [d.render() for d in r.deltas] == [
            "ADD-SLOT MANNER = often", "FILL SUBJ = the wind"], text


def test_coordinated_state_phrase_fills_the_result(lexicon, ssns, frames,
                                                   rules):
    r = run("The milk changed into curd or into cheese", lexicon, ssns,
            frames, rules)
    assert r.candidates == (change_key("2a"),)
    assert _slot(r.frame, "RESULT").filler == "curd"


def test_coordinated_respect_phrase_restricts_the_respect(lexicon, ssns,
                                                          frames, rules):
    r = run("The water changed in color, or in shape", lexicon, ssns,
            frames, rules)
    restrictions = _slot(r.frame, "RESPECT").restrictions
    assert "color" in restrictions
    assert not any(t.endswith((" or", " and")) for t in restrictions)


def test_chunk_drops_a_coordinator_that_ends_the_sentence(lexicon, ssns,
                                                          frames, rules):
    for text in ("The milk changed into curd or",
                 "The milk changed into curd and"):
        chunks = chunk_sentence(text, lexicon)
        assert chunks[2:] == [("prep-phrase", "curd", "into", None)]
    r = run("The milk changed into curd or", lexicon, ssns, frames, rules)
    assert [d.render() for d in r.deltas] == [
        "FILL RESULT = curd", "FILL SUBJ = the milk"]


# ---------------------------------------------------------------------------
# disambiguation

def test_milk_into_curd(lexicon, ssns, frames, rules):
    r = run("The milk changed into curd", lexicon, ssns, frames, rules)
    assert r.candidates == (change_key("2a"),)
    subj = _slot(r.frame, "SUBJ")
    assert subj.bind == "FROM-STATE" and subj.filler == "the milk"
    result = _slot(r.frame, "RESULT")
    assert result.bind == "TO-STATE" and result.filler == "curd"
    assert not r.open_questions


# senses 1 and 2 differ only in 1's NE condition, and 3 needs "into"
OTHER_CONDITIONS_LEXF = """\
E|zap|vi|1
S|1||to go|
S|2||to move|
S|3||to run|used with into
F|1|PRED GO
F|1|COND FROM-STATE NE TO-STATE
F|2|PRED GO
F|3|PRED GO
"""


def test_the_other_conditions_answer_has_no_condition(tmp_path, capsys):
    # "into ice" does not change the ice essentially, so sense 3's usage
    # is not met, and the oracle falls back to the sense with the fewest
    # conditions: 2, whose "other" answer has none, not 1
    lexf = tmp_path / "zap.lexf"
    lexf.write_text(OTHER_CONDITIONS_LEXF, encoding="utf-8")
    assert cli_run(["--lexicon", str(lexf), "--format", "tsv", "parse",
                    "--text", "The ice zapped into ice"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[:2] == [
        "zapped", "zap:vi:1:2"]


def test_wind_sentence_is_ambiguous(lexicon, ssns, frames, rules):
    r = run("The wind changed", lexicon, ssns, frames, rules)
    assert len(r.candidates) > 1
    assert any("RESPECT" in q for q in r.open_questions)


def test_moon_selects_subject_restricted_sense(lexicon, ssns, frames, rules):
    r = run("The moon changed", lexicon, ssns, frames, rules)
    assert r.candidates == (change_key("1e"),)


def test_added_phrase_narrows_candidates(lexicon, ssns, frames, rules):
    base = run("The wind changed", lexicon, ssns, frames, rules)
    more = run("The wind changed in direction", lexicon, ssns, frames, rules)
    assert set(more.candidates) <= set(base.candidates)
    assert len(more.candidates) < len(base.candidates)


def test_descriptors_fill_unfilled_mandatory_slots(lexicon, ssns, frames, rules):
    r = run("The milk changed", lexicon, ssns, frames, rules)
    descriptors = _collect_descriptors(r.frame)
    assert descriptors  # unfilled states carry fresh variables
    assert len({d.var for d in descriptors}) == len(descriptors)


def test_open_questions_come_from_the_network(lexicon, ssns, frames, rules):
    r = run("The wind changed", lexicon, ssns, frames, rules)
    valid = {q.qid for q in ssns["change"].questions()}
    assert set(r.open_questions) <= valid


# verb senses whose network asks what the words of a sentence answer:
# part of speech (a noun sense), transitivity (vi, vt and vb senses), a
# specified object of one word (OBJ-IS) and of several (OBJ-SAT), and an
# adjective complement (a definition ending "to be"); and a network of
# two vi senses asked only about the complement
ZAP_LEXF = {
    "mixed": "E|zap|vi|1\nS|1||to become bar|\nS|2||to go away|\n"
             "E|zap|vt|1\nS|1||to strike (metal)|\n"
             "S|2||to cause (a liquid) to become solid|\n"
             "S|3||to hit something hard|\n"
             "E|zap|vb|1\nS|1||to seem to be|\n"
             "E|zap|n|1\nS|1||a sudden sound|\n",
    "complement": "E|zap|vi|1\nS|1||to become bar|\nS|2||to seem to be|\n",
}


@pytest.fixture(scope="module")
def zap_analyses(rules):
    out = {}
    for name, text in ZAP_LEXF.items():
        lx = parse_lexf(text)
        frames = build_frames(lx, rules)
        out[name] = lx, build_all_ssns(lx, frames), frames, rules
    return out


def test_the_mixed_network_asks_each_sentence_question(zap_analyses):
    _, ssns, _, _ = zap_analyses["mixed"]
    assert [q.qid for q in ssns["zap"].questions()] == [
        "POS", "TRANSITIVITY", "ADJ-COMPLEMENT", "FRAME-DIFF pos",
        "FRAME-DIFF predicate", "OBJ-SAT a liquid", "OBJ-IS metal",
        "ADJ-COMPLEMENT", "FRAME-DIFF pos", "FRAME-DIFF predicate"]


@pytest.mark.parametrize("lexf, text, candidates, open_questions", [
    # no object: vi; no complement prunes the "to be" sense
    ("mixed", "The milk zapped", ["zap:vi:1:1", "zap:vi:1:2"],
     ("FRAME-DIFF predicate",)),
    # an object: vt; it is neither object, and it is a complement
    ("mixed", "The milk zapped sour", ["zap:vb:1:1", "zap:vt:1:3"],
     ("FRAME-DIFF pos",)),
    # the specified object, bare or with a determiner, keeps its sense
    ("mixed", "The smith zapped metal",
     ["zap:vb:1:1", "zap:vt:1:1", "zap:vt:1:3"],
     ("FRAME-DIFF pos", "FRAME-DIFF predicate")),
    ("mixed", "The smith zapped the metal",
     ["zap:vb:1:1", "zap:vt:1:1", "zap:vt:1:3"],
     ("FRAME-DIFF pos", "FRAME-DIFF predicate")),
    ("mixed", "The cold zapped a liquid",
     ["zap:vb:1:1", "zap:vt:1:2", "zap:vt:1:3"],
     ("FRAME-DIFF pos", "FRAME-DIFF predicate")),
    ("mixed", "The cold zapped water", ["zap:vb:1:1", "zap:vt:1:3"],
     ("FRAME-DIFF pos",)),
    # the complement is answered from the sentence, not assumed absent
    ("complement", "The milk zapped sour", ["zap:vi:1:1", "zap:vi:1:2"],
     ("FRAME-DIFF predicate",)),
    ("complement", "The milk zapped", ["zap:vi:1:1"], ()),
])
def test_sentence_words_answer_the_network(zap_analyses, lexf, text,
                                           candidates, open_questions):
    r = run(text, *zap_analyses[lexf])
    assert [k.render() for k in r.candidates] == candidates
    assert r.open_questions == open_questions


def _slot(frame, name):
    def walk(slots):
        for s in slots:
            if s.name == name:
                return s
            hit = walk(s.children)
            if hit:
                return hit
    return walk(frame.slots)


def _collect_descriptors(frame):
    out = []

    def walk(slots):
        for s in slots:
            if isinstance(s.filler, Descriptor):
                out.append(s.filler)
            walk(s.children)
    walk(frame.slots)
    return out


def test_essential_change_check():
    assert essential_change("the milk", "curd")
    assert not essential_change("a liquid", "a liquid")
    assert essential_change(None, "coal")
    assert not essential_change("a simple vowel", "vowel")


# a sentence's result depends on that sentence alone: parsed after any
# other sentences, in any order, it equals its first parse, made in a
# separate analysis
_ALONE = {}
_SUBJECTS = ("the milk", "the wind", "the moon", "the voice", "the water",
             "a liquid", "a simple vowel", "it")
_OBJECTS = ("curd", "vapor", "color", "shape", "direction", "color or shape",
            "the milk", "a liquid", "coal")


def _sentences(lexicon, ssns):
    """Sentences of a bundled verb, half of them one whose network asks
    questions, with a subject, prep phrases and an adverb."""
    verbs = sorted(w for w in lexicon.verb_headwords if " " not in w)
    asking = [w for w in verbs if len(ssns[w].senses) > 1]
    preps = sorted(lexicon.chunking_preps)
    phrase = st.tuples(st.sampled_from(preps), st.sampled_from(_OBJECTS))
    return st.builds(
        lambda subj, verb, phrases, adverb: " ".join(
            [subj, verb, *(f"{p} {o}" for p, o in phrases)]) + adverb,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(asking) | st.sampled_from(verbs),
        st.lists(phrase, max_size=3), st.sampled_from(("", " slowly")))


@pytest.fixture(scope="module")
def separate_analysis():
    """A second analysis of the bundled corpus, sharing no object with the
    session's one."""
    lx, rules = corpus.load_corpus(), corpus.load_rules()
    frames = build_frames(lx, rules)
    return lx, build_all_ssns(lx, frames), frames, rules


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_no_state_leaks_between_sentences(lexicon, ssns, frames, rules,
                                          separate_analysis, data):
    sentences = data.draw(st.lists(_sentences(lexicon, ssns), min_size=1,
                                   max_size=8))
    for text in sentences:
        if text not in _ALONE:
            _ALONE[text] = run(text, *separate_analysis)
    for text in data.draw(st.permutations(sentences)):
        assert run(text, lexicon, ssns, frames, rules) == _ALONE[text]


# ---------------------------------------------------------------------------
# instantiation: one rebuild of the slot tree equals the three steps it
# replaced, kept here as the reference

def reference_instantiate(frame, oracle, allocator):
    """The three steps: apply the sentence as a use (``_apply_use_to``, on
    the ``Phrase``s of its differentiae), fill SUBJ with the subject by a
    lookup and a walk down its path (``find_slot`` and ``update_slot``, which
    ``test_analysis_pins.py`` checks against their own references), fill
    descriptors in a second pass, and build the frame again."""
    phrases = tuple(Phrase("prep-phrase", c.text, c.prep)
                    if c.kind == "prep-phrase" else Phrase("adverb", c.text)
                    for c in oracle.ctx.differentiae)
    slots, deltas, _ = _apply_use_to(
        frame.slots, frame.predicate,
        ParsedDefinition((), differentiae=phrases), oracle.rules)
    deltas = list(deltas)
    subject = oracle.subject_text
    if subject:
        found = find_slot(slots, "SUBJ")
        if found and found[0].filler is None:
            path = _entry_path(found)
            slots = update_slot(slots, path, lambda s: s._replace(
                filler=subject))
            deltas.append(UseDelta("FILL", path, subject))
    slots = reference_fill_descriptors(slots, allocator)
    return frame._replace(slots=slots, provenance=frame.provenance
                          + ("applied use",)), tuple(deltas)


def reference_fill_descriptors(slots, allocator):
    """The descriptor pass the one rebuild replaced."""
    filled = {}
    for slot in sorted(slots, key=lambda s: s.name):
        filler = slot.filler
        if filler is None and (slot.name in MANDATORY_SLOTS
                               or slot.bind is not None or slot.case):
            filler = Descriptor(allocator.fresh(), slot.restrictions)
        kids = (reference_fill_descriptors(slot.children, allocator)
                if slot.children else ())
        filled[slot.name] = (slot if filler is slot.filler
                             and kids == slot.children else Slot(
                                 slot.name, slot.case, slot.bind, filler,
                                 slot.restrictions, kids))
    return tuple(filled[s.name] for s in slots)


_PHRASES = st.sampled_from([
    ("prep-phrase", text, prep)
    for prep in ("into", "to", "from", "in", "by", "with", "through", "within")
    for text in ("ice", "color or shape")] + [
    ("adverb", "slowly", None), ("adverb", "quickly", None)])


@st.composite
def _sentence_chunks(draw):
    """A sentence's chunks: a subject or none, the verb, and prep phrases
    (some a from...to pair) and adverbs."""
    chunks = []
    subject = draw(st.sampled_from((None, "the water", "it")))
    if subject:
        chunks.append(Chunk("noun-phrase", subject))
    chunks.append(Chunk("verb", "changed", None, "change"))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            chunks += [Chunk("prep-phrase", "hot", "from"),
                       Chunk("prep-phrase", "cold", "to")]
        else:
            chunks.append(Chunk(*draw(_PHRASES)))
    return chunks


USE_RULES = load_rule_table(family_rules_text())


def _frames():
    """A frame derived by applying uses, or one of a drawn slot tree, with
    nested and bound subjects and levels whose name order is not their
    slot order."""
    def derived(text):
        frames = build_frames(parse_lexf(text), USE_RULES)
        return st.sampled_from([frames[k]
                                for k in sorted(frames, key=SenseKey.sort_key)])

    return st.one_of(use_lexf_texts().flatmap(derived), slot_trees().map(
        lambda slots: Frame("ALPHA", PartOfSpeech.VI, (), slots)))


# each drawn phrase text and another, neither empty: a phrase with the
# other text makes the same edit as the phrase
_OTHER_TEXT = {"ice": "steam", "color or shape": "size", "hot": "warm",
               "cold": "cool", "slowly": "gently", "quickly": "briskly"}


@settings(max_examples=200, deadline=None)
@given(_frames(), _sentence_chunks(), _sentence_chunks(),
       st.sampled_from((None, "the ice")), st.integers(0, 3),
       st.permutations(range(5)))
def test_instantiation_equals_the_three_step_reference(frame, chunks, others,
                                                       override, start,
                                                       order):
    """Each frame is instantiated five times, in a drawn order: twice with
    a sentence whose prep phrases and adverbs make a use that may edit its
    slots (an adverb is added when none was drawn), once with the same
    phrases in other words, which edit the same slots, once with another
    drawn sentence, which may edit others, and once with the subject and
    verb alone, whose use edits nothing.  The frame keeps a fill plan per
    shape of the trees its uses leave, so no instantiation may read the
    plan of a tree of another shape."""
    editing = chunks
    if not any(c.kind in ("prep-phrase", "adverb") for c in chunks):
        editing = chunks + [Chunk("adverb", "slowly")]
    reworded = [c._replace(text=_OTHER_TEXT[c.text])
                if c.kind in ("prep-phrase", "adverb") else c
                for c in editing]
    plain = [c for c in chunks if c.kind in ("noun-phrase", "verb")]
    sentences = (editing, editing, reworded, others, plain)
    shapes = {}
    for index in order:
        oracle = ContextOracle(SentenceContext(sentences[index]), USE_RULES,
                               override)
        # ``start``: the variables a discourse allocated before
        allocator, reference_allocator = VarAllocator(), VarAllocator()
        allocator.count = reference_allocator.count = start
        got = _instantiate(frame, oracle, allocator)
        expected = reference_instantiate(frame, oracle, reference_allocator)
        assert got == expected
        assert repr(got) == repr(expected)
        assert allocator.count == reference_allocator.count
        shapes[index] = [delta[:2] for delta in got[1]]
    assert shapes[0] == shapes[1] == shapes[2]


# ---------------------------------------------------------------------------
# resolving uses inside definitions

@pytest.fixture(scope="module")
def proposals(lexicon, frames, rules):
    return {p.using.headword + ":" + p.using.label: p
            for p in autoresolve_all(lexicon, frames, rules)}


def test_coalify_resolves_to_sense_two(proposals):
    p = proposals["coalify:1"]
    assert p.unique == change_key("2")
    assert p.render() == "R|coalify:vb:1:1|change|change:vi:1:2"


def test_from_to_rows_propose_family_one(proposals):
    for row in ("come over:1a", "devitrify:1", "differ:1b", "melt:1a",
                "quarter:4", "transfer:2", "transship:1", "weaken:2"):
        p = proposals[row]
        assert p.unique is None, row
        assert p.candidates == FAMILY1, row


def test_ambiguous_rows_stay_non_unique(proposals):
    for row, expected in [
        ("caramelize:1", FAMILY1 + FAMILY2),
        ("chop and change:2", None),
        ("graduate:2", None),
        ("hold:1b(1)", None),
        ("specialize:3", None),
    ]:
        p = proposals[row]
        assert p.unique is None, row
        assert len(p.candidates) > 1
        if expected is not None:
            assert p.candidates == tuple(sorted(expected, key=SenseKey.sort_key))
        else:
            assert len(p.candidates) == 19


def test_respect_comparison_narrows_push(proposals):
    p = proposals["push:5b"]
    assert p.unique == change_key("1c")


def test_autoresolve_tallies_match_manifest(proposals, manifest):
    unique = sum(1 for p in proposals.values() if p.unique is not None)
    fam1 = sum(1 for p in proposals.values()
               if p.unique is None and p.candidates == FAMILY1)
    fam2 = sum(1 for p in proposals.values()
               if p.unique is None and p.candidates
               and set(p.candidates) <= set(FAMILY2))
    both = sum(1 for p in proposals.values()
               if p.candidates == FAMILY1 + FAMILY2)
    alln = sum(1 for p in proposals.values() if len(p.candidates) == 19)
    assert unique == manifest.values["autoresolve_unique"]
    assert fam1 == manifest.values["autoresolve_family1"]
    assert fam2 == manifest.values["autoresolve_family2"]
    assert both == manifest.values["autoresolve_both_families"]
    assert alln == manifest.values["autoresolve_all_senses"]
    assert unique + fam1 + fam2 + both + alln == 47


def test_proposals_cover_all_using_senses(proposals):
    assert len(proposals) == 47


def _proposal_fields(p) -> tuple:
    return (p.using, p.genus_word, p.unique, p.candidates, p.rationale)


@settings(max_examples=150, deadline=None)
@given(lexf_texts())
def test_autoresolve_all_equals_per_sense_calls(rules, text):
    lx = parse_lexf(accepted(text))
    frames = build_frames(lx, rules)
    for word in GENUS_WORDS:
        expected = [
            _propose(lx._by_key[key], _GenusTable(word, lx, frames))
            for key in sorted(lx.sense_keys(), key=SenseKey.sort_key)
            if key.pos.is_verb and key.headword != word
            and any(word in genus_words(rec, lx) for rec in lx._by_key[key])]
        got = autoresolve_all(lx, frames, rules, word)
        assert [_proposal_fields(p) for p in got] == [
            _proposal_fields(p) for p in expected]


@settings(max_examples=150, deadline=None)
@given(lexf_texts())
def test_every_proposal_is_about_the_word_asked_for(rules, text):
    # a proposal was once about its definition's first genus word, which
    # need not be the word asked for
    lx = parse_lexf(accepted(text))
    frames = build_frames(lx, rules)
    for word in GENUS_WORDS:
        assert all(p.genus_word == word
                   for p in autoresolve_all(lx, frames, rules, word))


def test_autoresolve_keeps_a_listed_phrasal_genus(rules):
    lx = parse_lexf(PHRASAL_LEXF)
    frames = build_frames(lx, rules)
    (proposal,) = autoresolve_all(lx, frames, rules, "give up")
    assert proposal.using == SenseKey("quit", PartOfSpeech.VI, 1, "1")
    assert proposal.genus_word == "give up"
    assert autoresolve_all(lx, frames, rules, "give") == []


# ---------------------------------------------------------------------------
# discourse

def test_carryover_binds_to_state(lexicon, ssns, frames, rules):
    sentences = ["The milk changed.", "It turned into curd."]
    solo_opens = 0
    for s in sentences:
        chunks = chunk_sentence(s, lexicon)
        verb = SentenceContext(chunks).verb
        r = disambiguate(verb.text, chunks, ssns[verb.lemma], frames, rules,
                         lexicon, VarAllocator())
        solo_opens += len(r.open_questions)
    results, state = parse_discourse(sentences, lexicon, ssns, frames, rules)
    bound_values = {v for _, v in state.bindings}
    assert "curd" in bound_values
    disc_opens = sum(len(r.open_questions) for r in results)
    assert disc_opens < solo_opens
    assert results[0].candidates == (change_key("2a"),)


def test_single_sentence_matches_disambiguate(lexicon, ssns, frames, rules):
    text = "The milk changed into curd"
    solo = run(text, lexicon, ssns, frames, rules)
    results, state = parse_discourse([text], lexicon, ssns, frames, rules)
    assert results[0].candidates == solo.candidates
    assert results[0].open_questions == solo.open_questions
    assert not state.bindings


def test_unrelated_subjects_do_not_bind(lexicon, ssns, frames, rules):
    results, state = parse_discourse(
        ["The milk changed.", "The voice changed."],
        lexicon, ssns, frames, rules)
    assert not state.bindings
    # each subject is its own entity, holding its own sentence's result
    assert [(e.head, e.result_index) for e in state.entities] == [
        ("milk", 0), ("voice", 1)]


def test_plural_pronoun_corefers_with_latest_entity(lexicon, ssns, frames, rules):
    results, state = parse_discourse(
        ["The milk changed.", "They turned into curd."],
        lexicon, ssns, frames, rules)
    assert "curd" in {v for _, v in state.bindings}


def test_descriptor_vars_unique_across_discourse(lexicon, ssns, frames, rules):
    results, _ = parse_discourse(
        ["The milk changed.", "The voice changed."],
        lexicon, ssns, frames, rules)
    seen = []
    for r in results:
        seen.extend(d.var for d in _collect_descriptors(r.frame))
    assert len(seen) == len(set(seen))


def test_results_tsv(lexicon, ssns, frames, rules):
    r = run("The milk changed into curd", lexicon, ssns, frames, rules)
    tsv = results_to_tsv([r])
    assert tsv.startswith("word\t")
    assert "change:vi:1:2a" in tsv


@pytest.mark.parametrize("first,again", [
    ("The milk changed slowly.", "It changed slowly."),
    ("The milk changed.", "It turned into curd."),
    ("The voice changed in pitch.", "The voice changed slowly in pitch."),
    ("The moon changed.", "They changed up."),
])
def test_repeating_a_coreferent_sentence_adds_no_evidence(
        lexicon, ssns, frames, rules, first, again):
    # the pending result merges each chunk once, however often a later
    # sentence repeats it
    once, _ = parse_discourse([first, again], lexicon, ssns, frames, rules)
    for k in (2, 3):
        repeated, _ = parse_discourse([first] + [again] * k, lexicon, ssns,
                                      frames, rules)
        for r in (repeated[0], *repeated[2:]):
            assert len(set(r.deltas)) == len(r.deltas)
        assert repeated[0].deltas == once[0].deltas
        assert repeated[0].candidates == once[0].candidates
        assert repeated[-1].deltas == once[1].deltas
