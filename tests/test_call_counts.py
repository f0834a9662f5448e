"""Each per-record fact is computed once per analysis: one pass of graph,
frames, reduction, networks and autoresolve computes a record's genus words
once and applies each use of a genus word once, and facts carried from one
stage to the next equal the ones a stage would compute afresh; ingest
parses each distinct usage note of a file once, and no later stage parses
one again.  Each fact of a sentence is computed once per parse of it, and
network traversal builds no lookup table.  A frame's fill plan is computed once per frame and shape
of the tree a sentence's use leaves, and a parse runs no import
statement."""
from __future__ import annotations

import builtins
import collections
import contextlib
import functools
import io
import re

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from support import accepted, lexf_texts, lexgen, resolved_lexf_texts
from lexigraph import corpus, frames as frames_mod, lexicon as lexicon_mod
from lexigraph import parser as parser_mod, ssn as ssn_mod
from lexigraph.cli import run
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import build_frames
from lexigraph.lexicon import (
    PartOfSpeech,
    genus_words,
    merge_lexicons,
    parse_lexf,
    split_alternatives,
)
from lexigraph.parser import autoresolve_all
from lexigraph.prep_rules import load_rule_table
from lexigraph.reduction import reduce_fixpoint
from lexigraph.ssn import build_all_ssns, compile_ssn


def counting(monkeypatch, module, name: str, key) -> collections.Counter:
    """Replace ``module.name`` with a wrapper that counts its calls under
    ``key(*args)``."""
    calls: collections.Counter = collections.Counter()
    real = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("word_government", [False, True])
def test_one_pass_computes_each_use_once(monkeypatch, word_government):
    lx = corpus.load_corpus(include_word_government=word_government)
    rules = corpus.load_rules()
    genus = counting(monkeypatch, lexicon_mod, "_genus_words",
                     lambda rec, lexicon: id(rec))
    # a record's parse is memoized on it, so its id names the record
    uses = counting(monkeypatch, frames_mod, "_apply_use_to",
                    lambda slots, family, use, rules: id(use))
    graph = apply_resolutions(build_graph(lx), lx.resolutions)
    frames = build_frames(lx, rules)
    report = reduce_fixpoint(lx, graph, frames, rules)
    build_all_ssns(lx, frames)
    autoresolve_all(lx, frames, rules)

    assert report.set_aside and sum(uses.values()) > 0
    assert set(genus) == {id(rec) for rec in lx.entries}
    assert max(genus.values()) == 1
    words = {id(lexicon_mod.parse_sense(rec)): len(genus_words(rec, lx))
             for rec in lx.entries if not rec.is_synonym_line}
    assert all(n <= words[use] for use, n in uses.items())


def test_x16_analysis_parses_each_usage_note_once(monkeypatch):
    # ingest keeps a record's usage particles, parsing each distinct note
    # of a file once, and no later stage parses a note again
    texts = lexgen().generate(16, 1).texts()
    rules = corpus.load_rules()
    notes = counting(monkeypatch, lexicon_mod, "_usage_particles",
                     lambda note: note)
    lx = merge_lexicons(*(parse_lexf(text) for text in texts))
    at_ingest = collections.Counter(notes)
    carried = collections.Counter(rec.usage_note for rec in lx.entries)
    assert any(rec.usage_particles for rec in lx.entries)
    assert all(n <= carried[note] for note, n in at_ingest.items())
    assert sum(at_ingest.values()) < len(lx.entries)
    graph = apply_resolutions(build_graph(lx), lx.resolutions)
    frames = build_frames(lx, rules)
    assert reduce_fixpoint(lx, graph, frames, rules).set_aside
    build_all_ssns(lx, frames)
    autoresolve_all(lx, frames, rules)
    assert notes == at_ingest


def test_analysis_sorts_the_sense_keys_once(monkeypatch):
    lx = corpus.load_corpus(include_word_government=True)
    rules = corpus.load_rules()
    calls = counting(monkeypatch, lexicon_mod.SenseKey, "sort_key",
                     lambda key: key)
    keys = lx._sorted_keys
    assert sum(calls.values()) == len(keys)
    calls.clear()
    # frames, reduction, networks and autoresolve read the lexicon's
    # sorted keys
    frames = build_frames(lx, rules)
    assert reduce_fixpoint(lx, None, frames, rules).set_aside
    networks = build_all_ssns(lx, frames)
    assert autoresolve_all(lx, frames, rules)
    # the CLI compiles a headword's network on demand
    # (``cli._NetworkCache``): the same network, from the same sorted keys
    assert any(len(net.senses) > 1 for net in networks.values())
    for headword, net in networks.items():
        assert compile_ssn(headword, lx, frames) == net
    assert not calls
    # a command sorts the keys of the lexicon it loads once
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["ssn", "--word", "change"]) == 0
    assert set(calls.values()) == {1}


def test_reduction_reads_the_deltas_of_the_derivation(monkeypatch, lexicon,
                                                      resolved_graph, rules):
    frames = build_frames(lexicon, rules)
    uses = counting(monkeypatch, frames_mod, "_apply_use_to",
                    lambda slots, family, use, rules: id(use))
    # on the bundled corpus every use the rules read was applied in
    # deriving the frames; a plain dict carries no deltas
    assert reduce_fixpoint(lexicon, resolved_graph, frames, rules).set_aside
    assert not uses
    reduce_fixpoint(lexicon, resolved_graph, dict(frames), rules)
    assert sum(uses.values()) == 44


# the bundled table's rows for every predicate family that a generated
# lexicon can have, so that its uses fill and restrict slots
FAMILIES = ("ALPHA", "BETA", "GAMMA", "GIVE", "GIVE UP", "GIVE-UP", "DELTA",
            "INTO")
RULES_TEXT = "".join(
    f"{prep}\t{family}\t{slot}\t{action}\n"
    for prep, _, slot, action in (
        line.split("\t")
        for line in corpus.corpus_text("prep_rules.tsv").splitlines()
        if line and not line.startswith("#"))
    for family in FAMILIES)


def check_carried_facts(text: str) -> None:
    text = accepted(text)
    lx = parse_lexf(text)
    rules = load_rule_table(RULES_TEXT)
    frames = build_frames(lx, rules)
    report = reduce_fixpoint(lx, None, frames, rules)
    assert report == reduce_fixpoint(lx, None, dict(frames), rules)
    # a table of the same text is another object: the deltas kept with
    # frames built from it are not read, and the result is the same
    other = build_frames(lx, load_rule_table(RULES_TEXT))
    assert report == reduce_fixpoint(lx, None, other, rules)
    # nor those kept with frames built from another table
    empty = build_frames(lx, load_rule_table(""))
    assert (reduce_fixpoint(lx, None, empty, rules)
            == reduce_fixpoint(lx, None, dict(empty), rules))
    fresh = parse_lexf(text)
    for rec, fresh_rec in zip(lx.entries, fresh.entries):
        assert lx._genus[id(rec)] == genus_words(fresh_rec, fresh)


@settings(max_examples=60, deadline=None)
@given(lexf_texts())
def test_carried_facts_equal_fresh_ones(text):
    check_carried_facts(text)


# valid R records, so that most genus arcs are resolved: about one
# example in eight then reads deltas the frames kept, and one in
# twenty-five has a use over a provisional frame made for a cycle
@settings(max_examples=100, deadline=None)
@given(resolved_lexf_texts())
def test_carried_facts_equal_fresh_ones_when_resolved(text):
    check_carried_facts(text)


# ---------------------------------------------------------------------------
# the parse path: facts of the sentence are computed once per sentence

def test_disambiguate_takes_the_subject_head_once(monkeypatch, lexicon, ssns,
                                                  frames, rules):
    heads = counting(monkeypatch, parser_mod, "head_noun", lambda text: text)
    chunks = parser_mod.chunk_sentence("The wind changed", lexicon)
    result = parser_mod.disambiguate("changed", chunks, ssns["change"],
                                     frames, rules, lexicon)
    # ten candidates are scored, and questions on the subject are asked
    assert len(result.candidates) > 1
    assert heads["the wind"] <= 1


def test_traverse_builds_no_dict(monkeypatch, lexicon, change_ssn, rules):
    built: list[tuple] = []

    def counting_dict(*args, **kwargs):
        built.append(args)
        return dict(*args, **kwargs)

    # every dict call made by the code of the ssn module, branch maps too
    monkeypatch.setattr(ssn_mod, "dict", counting_dict, raising=False)
    first = ssn_mod.traverse(change_ssn, lambda q: q.branches[0][0])
    unknown = ssn_mod.traverse(change_ssn, {})
    assert len(first.senses) == 1 and not first.open_questions
    assert len(unknown.senses) == len(change_ssn.senses)
    assert built == []


# ---------------------------------------------------------------------------
# the parse path: facts of a frame are computed once per frame, and facts of
# a network question once per question

def ambiguous_parses(lexicon, rules):
    """Parsing "The wind changed" and "The moon changed", on frames and a
    network of their own, so no earlier test has computed their facts."""
    frames = build_frames(lexicon, rules)
    network = build_all_ssns(lexicon, frames)["change"]
    sentences = [parser_mod.chunk_sentence(text, lexicon)
                 for text in ("The wind changed", "The moon changed")]

    def parse() -> list:
        results = [parser_mod.disambiguate("changed", chunks, network, frames,
                                           rules, lexicon)
                   for chunks in sentences]
        # the wind reaches several senses, which are scored, and questions
        # on their frame differences are left open
        assert len(results[0].candidates) > 1 and results[0].open_questions
        return results

    return parse, frames


def test_second_parse_builds_no_match_facts(monkeypatch, lexicon, rules):
    parse, frames = ambiguous_parses(lexicon, rules)
    # building a frame's match facts walks its slots from the top, once
    tops = {id(frame.slots) for frame in frames.values()}
    builds = counting(monkeypatch, parser_mod, "walk_slots",
                      lambda slots: id(slots) in tops)
    first = parse()
    held = {k: vars(frame)["_match_facts"] for k, frame in frames.items()
            if "_match_facts" in vars(frame)}
    assert held and builds[True] == len(held)
    assert parse() == first
    assert builds[True] == len(held)
    assert all(vars(frames[k])["_match_facts"] is facts
               for k, facts in held.items())


def test_second_parse_walks_no_slots(monkeypatch, lexicon, rules):
    parse, _ = ambiguous_parses(lexicon, rules)
    steps = [0]
    for module in (parser_mod, frames_mod):
        def counting_walk(slots, real=module.walk_slots):
            for slot in real(slots):
                steps[0] += 1
                yield slot

        monkeypatch.setattr(module, "walk_slots", counting_walk)
    first = parse()
    walked = steps[0]
    assert parse() == first
    assert steps[0] == walked


def test_each_question_builds_its_alternatives_once(monkeypatch, lexicon,
                                                    rules):
    parse, _ = ambiguous_parses(lexicon, rules)
    built: collections.Counter = collections.Counter()

    def counting_dict(*args, **kwargs):
        if args:
            built[id(args[0])] += 1
        return dict(*args, **kwargs)

    # every dict the ssn module's code builds from a question's pairs
    monkeypatch.setattr(ssn_mod, "dict", counting_dict, raising=False)
    first = parse()
    assert built
    assert parse() == first
    assert max(built.values()) == 1


# ---------------------------------------------------------------------------
# the parse path: a frame's fill plan is computed once per frame and shape
# of the tree a sentence's use leaves, and a parse runs no import statement

@pytest.mark.parametrize("text", ["The wind changed",
                                  "The milk changed into curd"])
def test_second_parse_reads_the_frame_plan(monkeypatch, lexicon, rules,
                                           text):
    """A second parse reads the plan its frame kept: its own for "The wind
    changed", whose use leaves the slots as they are, and that of the
    edited tree's shape for "The milk changed into curd", whose use fills
    RESULT.  It sorts no slot level, searches no SUBJ slot and runs no
    import statement."""
    frames = build_frames(lexicon, rules)
    network = build_all_ssns(lexicon, frames)["change"]
    chunks = parser_mod.chunk_sentence(text, lexicon)

    def parse():
        return parser_mod.disambiguate("changed", chunks, network, frames,
                                       rules, lexicon)

    first = parse()
    imports, sorts = [], []
    real_import = builtins.__import__

    def counting_import(*args, **kwargs):
        imports.append(args[0])
        return real_import(*args, **kwargs)

    def counting_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    # every sorted and find_slot call made by the code of the parse path's
    # modules
    for module in (parser_mod, frames_mod, ssn_mod):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    finds = [counting(monkeypatch, module, "find_slot",
                      lambda slots, name: name)
             for module in (parser_mod, frames_mod)]
    monkeypatch.setattr(builtins, "__import__", counting_import)
    second = parse()
    monkeypatch.undo()
    assert second == first and repr(second) == repr(first)
    assert imports == [] and sorts == []
    assert sum(found["SUBJ"] for found in finds) == 0
    frame = frames[first.candidates[0]]
    ctx = parser_mod.SentenceContext(chunks)
    slots = frames_mod._apply_use_to(frame.slots, frame.predicate, ctx,
                                     rules)[0]
    assert (slots is frame.slots) == (text == "The wind changed")


# ---------------------------------------------------------------------------
# carried parse facts equal fresh ones: the match facts held on a frame and
# the probe facts held on a question give the answers the slot-walking and
# pair-reading code they replaced gives

# a frame no bundled or x16 lexicon derives: capitalized SUBJ fillers, a
# RESPECT slot under a RESPECT slot, and two USED-WITH conditions
HAND_BUILT_FRAME = frames_mod.Frame(
    "BECOME-DIFFERENT", PartOfSpeech.VI,
    (("USED-WITH", ("into", "up")), ("USED-WITH", ("with",))),
    (frames_mod.Slot("SUBJ", filler="The Wind"),
     frames_mod.Slot("RESPECT", restrictions=("Color or Shape",), children=(
         frames_mod.Slot("RESPECT", restrictions=("size, Weight",)),
         frames_mod.Slot("SUBJ", filler="Voice")))))


# questions no bundled or x16 network asks: a non-SUBJ filler, answers
# out of order, string predicate and restriction values, and conditions
# met by alternatives with more and fewer USED-WITH conditions
HAND_BUILT = tuple(ssn_mod.Question("FRAME-DIFF", (path, pairs), ())
                   for path, pairs in (
    (("slots", "RESULT", "filler"), (("curd", "curd"), ("Vapor", "Vapor"),
                                     ("other", ""))),
    (("predicate",), (("b", ("BECOME-DIFFERENT", "fixed")),
                      ("a", "BECOME-DIFFERENT (provisional)"),
                      ("other", ""))),
    (("slots", "RESPECT", "restrictions"), (("color", "color or shape"),
                                            ("size", ("size", "Weight")))),
    (("conditions",), (("b", ("USED-WITH up",)),
                       ("a", ("FROM-STATE NE TO-STATE", "USED-WITH up",
                              "USED-WITH with|by")),
                       ("other", ""))),
    (("slots", "SUBJ", "bind"), (("other", ""),)),
))


@functools.cache
def parse_inputs() -> tuple:
    """The rules, and every frame and FRAME-DIFF question, of the bundled
    corpus and of the x16 lexicons for seeds 7 and 11; generated LEXF
    frames carry no SUBJ filler, RESPECT restriction or USED-WITH
    condition, these do."""
    rules = corpus.load_rules()
    frames: list = [HAND_BUILT_FRAME]
    questions: list = []
    for lx in (corpus.load_corpus(include_word_government=True),
               *(merge_lexicons(*(parse_lexf(t) for t in
                                  lexgen().generate(16, seed).texts()))
                 for seed in (7, 11))):
        table = build_frames(lx, rules)
        frames += table.values()
        questions += [q for net in build_all_ssns(lx, table).values()
                      for q in net.questions() if q.kind == "FRAME-DIFF"]
    return rules, tuple(frames), tuple(questions)


def texts_of(value) -> set[str]:
    """The strings of a frame, a slot value or a question value, and their
    words."""
    if isinstance(value, frames_mod.Frame):
        texts = {t for s in frames_mod.walk_slots(value.slots)
                 for t in (s.filler, *s.restrictions) if isinstance(t, str)}
        texts |= {p for c in value.conditions if c[0] == "USED-WITH"
                  for p in c[1]}
    else:
        texts = {str(v) for v in (value if isinstance(value, tuple)
                                  else (value,))}
    return texts | {w for t in texts for w in t.split()}


@functools.cache
def parse_words() -> tuple[str, ...]:
    """The texts of every frame and question value, and their words."""
    _, frames, questions = parse_inputs()
    return tuple(sorted(set().union(
        *map(texts_of, frames),
        *(texts_of(v) for q in questions + HAND_BUILT
          for _, v in q.payload[1]))))


PARTICLES = ("in", "into", "to", "from", "up", "out", "with", "by")


@st.composite
def sentence_oracles(draw):
    """A probing oracle for a drawn sentence: a subject (as the discourse
    passes it, any case), prep phrases and particles, their words drawn
    mostly from one frame or question, so that they meet its facts."""
    rules, frames, questions = parse_inputs()
    source = draw(st.just(HAND_BUILT_FRAME) | st.sampled_from(frames)
                  | st.sampled_from([v for q in questions + HAND_BUILT
                                     for _, v in q.payload[1]]))
    own = sorted(texts_of(source) - {""})
    words = st.sampled_from(parse_words())
    if own:
        words = st.sampled_from(own) | words
    phrase = st.lists(words, min_size=1, max_size=3).map(
        lambda ws: draw(st.sampled_from((" or ", ", "))).join(ws))
    subject = draw(st.none() | phrase.map(
        lambda t: draw(st.sampled_from(("", "the ", "The "))) + t))
    if subject and draw(st.booleans()):
        subject = subject.upper()
    chunks = [parser_mod.Chunk("verb", "changed", None, "change")]
    if draw(st.booleans()):
        chunks.append(parser_mod.Chunk("prep-phrase", draw(phrase), "in"))
    preps = st.sampled_from(PARTICLES + tuple(w for w in own if " " not in w))
    for prep in draw(st.lists(preps, max_size=3)):
        if draw(st.booleans()):
            chunks.append(parser_mod.Chunk("prep-phrase", draw(phrase), prep))
        else:
            chunks.append(parser_mod.Chunk("particle", prep, prep))
    return parser_mod.ContextOracle(parser_mod.SentenceContext(chunks), rules,
                                    subject)


def lower_alternatives(phrases) -> set[str]:
    return {a.lower() for p in phrases for a in split_alternatives(p)}


def walked_match_score(frame, oracle) -> int:
    """The informative-match score as counted by walking the frame's slots
    for each candidate."""
    score = 0
    names = oracle.subject_names() if oracle.subject_text else ("", "")
    for slot in frames_mod.walk_slots(frame.slots):
        if slot.name == "SUBJ" and isinstance(slot.filler, str) and names[0]:
            if slot.filler.lower() in names:
                score += 1
        if (slot.name == "RESPECT" and slot.restrictions
                and oracle.in_given is not None
                and not oracle.in_given.isdisjoint(lower_alternatives(
                    r for s in frames_mod.walk_slots((slot,))
                    if s.name == "RESPECT" for r in s.restrictions))):
            score += 1
    for cond in frame.conditions:
        if (cond[0] == "USED-WITH"
                and not oracle.ctx.particles.isdisjoint(cond[1])):
            score += 1
    return score


@settings(max_examples=40, deadline=None)
@given(sentence_oracles())
def test_carried_match_facts_give_the_walked_score(oracle):
    _, frames, _ = parse_inputs()
    total = 0
    for frame in frames:  # each keeps its facts from earlier examples
        score = parser_mod._match_score(frame, oracle)
        assert score == walked_match_score(frame, oracle)
        fresh = frame._replace()
        assert "_match_facts" not in vars(fresh)
        assert (parser_mod._match_facts(fresh)
                == parser_mod._match_facts(frame))
        total += score
    target(float(total))  # toward sentences that confirm many constraints


@pytest.mark.parametrize("subject,in_text,particles,score", [
    ("The WIND", None, (), 1),         # a SUBJ filler, in any case
    ("voice", "Weight", (), 3),        # the nested SUBJ; both RESPECT slots
    (None, "shape", ("up",), 2),       # the outer RESPECT; one condition
    (None, "size", ("into", "with"), 4),
])
def test_match_score_counts_each_fact(subject, in_text, particles, score):
    rules, _, _ = parse_inputs()
    chunks = [parser_mod.Chunk("verb", "changed", None, "change")]
    if in_text:
        chunks.append(parser_mod.Chunk("prep-phrase", in_text, "in"))
    chunks += [parser_mod.Chunk("particle", p, p) for p in particles]
    oracle = parser_mod.ContextOracle(parser_mod.SentenceContext(chunks),
                                      rules, subject)
    frame = HAND_BUILT_FRAME._replace()
    assert parser_mod._match_score(frame, oracle) == score
    assert walked_match_score(frame, oracle) == score


def paired_answer(oracle, q) -> str:
    """The answer to a FRAME-DIFF question as found by reading its
    (answer, value) pairs for each sentence."""
    ctx, alts = oracle.ctx, q.alternatives()
    path = q.payload[0]
    if path == ("predicate",):
        for answer in sorted(alts):
            value = alts[answer]
            family = value[0] if isinstance(value, tuple) and value else (
                re.sub(r" \(provisional\)$", "", str(value)))
            for pp in ctx.prep_phrases:
                if oracle.rules.slot_action(pp.prep, family):
                    return answer
        return "unknown"
    if path == ("conditions",):
        return paired_conditions_answer(oracle, alts)
    last = path[-1]
    other = "other" if "other" in alts else "unknown"
    if last == "bind" and "SUBJ" in path:
        pp = ctx.pp_object(("into", "to"))
        if pp is not None and pp.text:
            if parser_mod.essential_change(oracle.subject_text, pp.text):
                return "FROM-STATE" if "FROM-STATE" in alts else "unknown"
            return other
        return other if "from" in ctx.particles and "to" in ctx.particles \
            else "unknown"
    if last == "filler" and len(path) > 1 and path[1] == "SUBJ":
        if oracle.subject_text is None:
            return "unknown"
        names = oracle.subject_names()
        for answer, value in alts.items():
            if answer != "other" and str(value).lower() in names:
                return answer
        return other
    if last == "restrictions" and len(path) > 1 and path[-2] == "RESPECT":
        if oracle.in_given is None:
            return "unknown"
        for answer, value in alts.items():
            phrases = value if isinstance(value, tuple) else (value,)
            if answer != "other" and not oracle.in_given.isdisjoint(
                    lower_alternatives(map(str, phrases))):
                return answer
        return other
    if last == "filler":
        for answer, value in alts.items():
            if answer != "other" and any(
                    str(value).lower() == pp.text.lower()
                    for pp in ctx.prep_phrases):
                return answer
    return "unknown"


def paired_conditions_answer(oracle, alts) -> str:
    present = oracle.ctx.particles
    scored: list[tuple[int, str]] = []
    base = None
    any_relevant = False
    for answer, value in alts.items():
        conds = value if isinstance(value, tuple) else (value,)
        used_with = [c for c in conds if str(c).startswith("USED-WITH")]
        if not used_with:
            if base is None or len(conds) < base[0]:
                base = (len(conds), answer)
            continue
        ok = True
        for cond in used_with:
            hit = [p for p in str(cond).split(None, 1)[1].split("|")
                   if p in present]
            if not hit:
                ok = False
                break
            if set(hit) & {"into", "to"}:
                any_relevant = True
                pp = oracle.ctx.pp_object(hit)
                if pp is not None and pp.text and not parser_mod.essential_change(
                        oracle.subject_text, pp.text):
                    ok = False
                    break
        if ok:
            scored.append((len(used_with), answer))
    if scored:
        return sorted(scored, reverse=True)[0][1]
    if any_relevant and base is not None:
        return base[1]
    return "unknown"


@settings(max_examples=40, deadline=None)
@given(sentence_oracles())
def test_carried_probe_facts_give_the_paired_answer(oracle):
    _, _, questions = parse_inputs()
    for q in questions + HAND_BUILT:  # each keeps its facts from earlier
        assert oracle(q) == paired_answer(oracle, q), q.qid
        fresh = q._replace()
        assert "_probe" not in vars(fresh) and fresh._probe == q._probe
