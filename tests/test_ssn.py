from __future__ import annotations

import gc
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    accepted,
    change_key,
    dot_strings,
    family_rules_text,
    first_diff,
    flat_group,
    lexf_texts,
    lexgen,
    node_objects,
    object_lexf,
    oracle_reaching,
    particle_lexf,
    reference_compile_ssn,
    usage_lexf_texts,
    use_lexf_texts,
    wide_lexf,
    wide_lexf_texts,
    wordgov_corpus,
)
from lexigraph import corpus
from lexigraph.corpus import load_rules
from lexigraph.frames import build_frames
from lexigraph.lexicon import (
    PartOfSpeech,
    Sense,
    SenseKey,
    merge_lexicons,
    parse_lexf,
)
from lexigraph.prep_rules import load_rule_table
from lexigraph.ssn import (
    CompileError,
    Nonterminal,
    Question,
    SSN,
    Sieve,
    Terminal,
    build_all_ssns,
    compile_ssn,
    to_dot,
    to_text,
    traverse,
)


# ---------------------------------------------------------------------------
# compilation shape

def test_single_sense_headword_is_single_terminal(lexicon, frames):
    net = compile_ssn("deform", lexicon, frames)
    assert isinstance(net.root, Terminal)
    assert not net.questions()


def test_change_ssn_reaches_every_sense(lexicon, change_ssn):
    assert len(change_ssn.senses) == 19
    for key in change_ssn.senses:
        answers = oracle_reaching(change_ssn, key)
        assert answers is not None, key
        result = traverse(change_ssn, answers)
        assert result.senses == (key,)
        assert result.terminal
        assert not result.open_questions


def test_family_split_is_at_subject_binding(change_ssn):
    # with no usage particles, the first semantic question separating the
    # two families sits on the SUBJ binding path
    qids = [q.qid for q in change_ssn.questions()]
    assert "FRAME-DIFF slots.SUBJ.bind" in qids


def test_usage_questions_exist(change_ssn):
    qids = {q.qid for q in change_ssn.questions()}
    assert "USAGE used with into" in qids
    assert "USAGE used with to" in qids
    assert "USAGE used with for" in qids


def test_subsenses_discriminated_by_respect(change_ssn):
    qids = {q.qid for q in change_ssn.questions()}
    assert "FRAME-DIFF slots.ACCIDENTAL-ATTRS.RESPECT.restrictions" in qids


def test_compile_needs_senses_and_their_frames(lexicon, frames):
    with pytest.raises(CompileError, match="no senses for 'zzz'"):
        compile_ssn("zzz", lexicon, frames)
    missing = dict(frames)
    del missing[change_key("2")]
    with pytest.raises(CompileError, match="no frame for change:vi:1:2$"):
        compile_ssn("change", lexicon, missing)


def test_duplicate_frames_error():
    lx = parse_lexf(
        "E|w|vi|1\n"
        "S|2a||grow larger|\n"
        "S|3b||grow smaller|\n"
        "F|2a|PRED GROW\n"
        "F|3b|PRED GROW\n")
    frames = build_frames(lx, load_rules())
    with pytest.raises(CompileError) as err:
        compile_ssn("w", lx, frames)
    assert "w:vi:1:2a" in str(err.value) and "w:vi:1:3b" in str(err.value)


def test_indistinguishable_subsenses_collapse_to_parent():
    lx = parse_lexf(
        "E|w|vi|1\n"
        "S|1||move about|\n"
        "S|1a||move about somehow|\n"
        "S|1b||move about someway|\n"
        "F|1|PRED MOVE\n")
    frames = build_frames(lx, load_rules())
    # children inherit the parent frame unchanged: identical representations
    net = compile_ssn("w", lx, frames)
    assert isinstance(net.root, Nonterminal)
    assert net.root.sense == SenseKey("w", PartOfSpeech.VI, 1, "1")
    assert set(net.root.members) == {
        SenseKey("w", PartOfSpeech.VI, 1, "1"),
        SenseKey("w", PartOfSpeech.VI, 1, "1a"),
        SenseKey("w", PartOfSpeech.VI, 1, "1b")}


def test_pos_stage_branches_across_homograph_sets(wordgov_lexicon, rules):
    frames = build_frames(wordgov_lexicon, rules)
    net = compile_ssn("knife", wordgov_lexicon, frames)
    assert isinstance(net.root, Question) and net.root.kind == "POS"
    answers = dict(net.root.branches)
    assert set(answers) == {"n", "v"}
    result = traverse(net, {"POS": "n"})
    assert result.senses == (SenseKey("knife", PartOfSpeech.NOUN, 1, "1"),)


def test_transitivity_stage():
    lx = parse_lexf(
        "E|skim|vi|1\nS|1||glide lightly|\n"
        "E|skim|vt|1\nS|1||remove (film) from a liquid|\n")
    frames = build_frames(lx, load_rules())
    net = compile_ssn("skim", lx, frames)
    qs = {q.kind for q in net.questions()}
    assert "TRANSITIVITY" in qs
    result = traverse(net, {"TRANSITIVITY": "vt"})
    assert result.senses == (SenseKey("skim", PartOfSpeech.VT, 1, "1"),)


def test_specified_object_stage():
    lx = parse_lexf(
        "E|bail|vt|1\n"
        "S|1||to clear (water) from a boat by dipping and throwing over the side|\n"
        "S|2||to deliver (personal property) in trust to another|\n")
    frames = build_frames(lx, load_rules())
    net = compile_ssn("bail", lx, frames)
    kinds = {q.kind for q in net.questions()}
    assert "OBJ-IS" in kinds          # the literal word "water"
    assert "OBJ-SAT" in kinds         # the generic "personal property"
    # absence of the required object prunes the requiring sense
    result = traverse(net, {"OBJ-IS water": "no",
                            "OBJ-SAT personal property": "yes"})
    assert SenseKey("bail", PartOfSpeech.VT, 1, "1") not in result.senses
    # presence does not confirm: a water object keeps both senses live
    result = traverse(net, {"OBJ-IS water": "yes",
                            "OBJ-SAT personal property": "yes"})
    assert len(result.senses) == 2


def test_adjective_complement_stage():
    lx = parse_lexf(
        "E|feel|vi|1\n"
        "S|1||perceive oneself to be|\n"
        "S|2||seem especially to the touch|\n")
    frames = build_frames(lx, load_rules())
    net = compile_ssn("feel", lx, frames)
    kinds = {q.kind for q in net.questions()}
    assert "ADJ-COMPLEMENT" in kinds
    result = traverse(net, {"ADJ-COMPLEMENT": "absent"})
    assert SenseKey("feel", PartOfSpeech.VI, 1, "1") not in result.senses


# ---------------------------------------------------------------------------
# traversal semantics

def into_present_oracle(change_ssn):
    key = change_key("2a")
    return oracle_reaching(change_ssn, key)


def test_into_context_reaches_2a_terminal(change_ssn):
    answers = {
        "USAGE used with into": "present",
        "USAGE used with to": "absent",
        "USAGE used with for": "absent",
        "FRAME-DIFF predicate": "BECOME-DIFFERENT",
        "FRAME-DIFF conditions": "FROM-STATE NE TO-STATE; USED-WITH into",
    }
    result = traverse(change_ssn, answers)
    assert result.senses == (change_key("2a"),)
    assert result.terminal
    assert not result.open_questions


def test_bare_context_retains_both_families(change_ssn):
    answers = {
        "USAGE used with into": "absent",
        "USAGE used with to": "absent",
        "USAGE used with for": "absent",
    }
    result = traverse(change_ssn, answers)
    senses = set(result.senses)
    family1 = {change_key(l) for l in
               ("1", "1a", "1b(1)", "1b(2)", "1c", "1d", "1e", "1f",
                "1g", "1h", "1i")}
    assert family1 <= senses
    assert {change_key("2"), change_key("2c")} <= senses
    assert not result.terminal
    assert result.open_questions


def test_traverse_deterministic(change_ssn):
    answers = {"USAGE used with into": "absent"}
    a = traverse(change_ssn, answers)
    b = traverse(change_ssn, answers)
    assert a == b


def test_usage_note_pruning(change_ssn):
    # "into" reported absent: 2a never appears, whatever else is answered
    rng = random.Random(7)
    for _ in range(200):
        answers = _random_answers(change_ssn, rng)
        answers["USAGE used with into"] = "absent"
        result = traverse(change_ssn, answers)
        assert change_key("2a") not in result.senses


def test_presence_does_not_confirm(change_ssn):
    # into present alone keeps senses beyond 2a
    answers = {
        "USAGE used with into": "present",
        "USAGE used with to": "absent",
        "USAGE used with for": "absent",
    }
    result = traverse(change_ssn, answers)
    assert change_key("2a") in set(result.senses)
    assert len(result.senses) > 1


def _questions_by_qid(ssn: SSN) -> dict[str, Question]:
    return {q.qid: q for q in ssn.questions()}


def _random_answers(ssn: SSN, rng: random.Random) -> dict:
    answers = {}
    for qid, q in sorted(_questions_by_qid(ssn).items()):
        choices = [a for a, _ in q.branches] + ["unknown"]
        answers[qid] = rng.choice(choices)
    return answers


def test_pruning_soundness_randomized(change_ssn):
    # replacing one unknown with a concrete answer never enlarges the result
    rng = random.Random(42)
    qmap = _questions_by_qid(change_ssn)
    for _ in range(300):
        answers = _random_answers(change_ssn, rng)
        before = traverse(change_ssn, answers)
        if not before.open_questions:
            continue
        qid = rng.choice(list(before.open_questions))
        concrete = dict(answers)
        concrete[qid] = rng.choice([a for a, _ in qmap[qid].branches])
        after = traverse(change_ssn, concrete)
        assert set(after.senses) <= set(before.senses)


def test_open_questions_are_reached_nodes(change_ssn):
    rng = random.Random(3)
    valid = set(_questions_by_qid(change_ssn))
    for _ in range(100):
        result = traverse(change_ssn, _random_answers(change_ssn, rng))
        assert set(result.open_questions) <= valid
        assert result.senses  # never empty


def test_exports(change_ssn):
    text = to_text(change_ssn)
    assert "ssn for change" in text
    dot = to_dot(change_ssn)
    assert "diamond" in dot and "box" in dot


def test_build_all_ssns_covers_headwords(lexicon, ssns):
    heads = {s.headword for s in lexicon.entries}
    assert set(ssns) == heads


def test_dot_export_escapes_labels(rules):
    lx = parse_lexf('E|say "when"|vt|1\n'
                    'S|1||utter ("hello") loudly|\n'
                    'S|2||speak words|\n')
    net = build_all_ssns(lx, build_frames(lx, rules))['say "when"']
    names = dot_strings(to_dot(net))
    assert 'say "when":vt:1:1' in names and 'say "when":vt:1:2' in names
    assert 'OBJ-IS "hello"' in names


def test_empty_slot_against_no_slot_is_no_frame_difference(rules):
    # homograph 1 has a SUBJ slot with a bind but no case, homograph 2 no
    # SUBJ slot: at SUBJ's case both read as empty and answer "other", so
    # asking there recursed on the same group until RecursionError
    lx = parse_lexf("E|alpha|vt|1\nY|1|ALPHA\nF|1|SLOT SUBJ BIND FROM-STATE\n\n"
                    "E|alpha|vt|2\nY|1|ALPHA\nF|1|SLOT RESPECT RESTRICT color\n")
    net = compile_ssn("alpha", lx, build_frames(lx, rules))
    assert [q.qid for q in net.questions()] == ["FRAME-DIFF slots.SUBJ.bind"]
    assert net.root.alternatives() == {"FROM-STATE": "FROM-STATE", "other": ""}


def _keys_under(node) -> list[SenseKey]:
    if isinstance(node, Terminal):
        return [node.sense]
    if isinstance(node, Nonterminal):
        return list(node.members)
    keys = [k for _, child in node.branches for k in _keys_under(child)]
    return sorted(set(keys), key=SenseKey.sort_key)


@settings(max_examples=60, deadline=None)
@given(lexf_texts())
def test_frame_diff_questions_equal_a_fresh_group_first_diff(rules, text):
    # each network flattens its frames once per frame-difference subtree;
    # every question must still be the first difference of its own group
    lx = parse_lexf(accepted(text))
    frames = build_frames(lx, rules)
    for headword in sorted(lx.headwords()):
        try:
            net = compile_ssn(headword, lx, frames)
        except CompileError:
            continue
        for q in net.questions():
            if q.kind != "FRAME-DIFF":
                continue
            group = _keys_under(q)
            flats, positions = flat_group({k: frames[k] for k in group})
            _, path, values = first_diff(group, flats, positions, start=0)
            assert q.payload[0] == tuple(path)
            alts = q.alternatives()
            assert list(alts) == [answer for answer, _ in q.branches]
            for answer, child in q.branches:
                under = _keys_under(child)
                if answer == "other":
                    assert alts[answer] == ""
                    assert all(values[k] in (None, "", ()) for k in under)
                else:
                    assert alts[answer] == values[under[0]]
                    assert all(repr(values[k]) == repr(alts[answer])
                               for k in under)


# ---------------------------------------------------------------------------
# what a network selects: traversing it walks to what traversing the tree
# of the reference compile does, which asks each necessary condition as a
# two-way question whose keeping answer leads to the whole group

CONDITIONS = ("OBJ-IS", "OBJ-SAT", "ADJ-COMPLEMENT", "USAGE")


def _compiled(compile, headword, lexicon, frames):
    """The network, or the message of the CompileError it raises."""
    try:
        return compile(headword, lexicon, frames)
    except CompileError as exc:
        return str(exc)


def _answer_maps(ref, choose, count: int) -> list[dict]:
    """The empty map, ``count`` maps that answer every necessary condition
    with one of its two answers, and ``count`` that may leave any question
    unknown, each answer picked by ``choose`` from the reference's
    answers to the question."""
    questions = sorted({q.qid: q for q in ref.questions()}.items())
    return [{}] + [
        {qid: choose([answer for answer, _ in q.branches]
                     + ["unknown"] * (free or q.kind not in CONDITIONS))
         for qid, q in questions}
        for free in (False, True) for _ in range(count)]


def _walk(net, answers: dict):
    """The traversal under ``answers`` and the questions it asked."""
    asked = set()

    def oracle(q):
        asked.add(q.qid)
        return answers.get(q.qid, "unknown")

    return traverse(net, oracle), asked


def _selects_as_the_reference(net, ref, answer_maps) -> None:
    """Under every map the network walks to the senses, terminal and open
    questions the reference walks to.  A condition left unknown prunes
    nothing: the senses include those under its keeping answer, and it is
    open wherever that walk asks it.  ``oracle_reaching`` finds a map that
    leads to exactly each sense the reference leads to alone."""
    conditions = {q.qid: [answer for answer, _ in q.branches]
                  for q in ref.questions() if q.kind in CONDITIONS}
    for answers in answer_maps:
        walked = traverse(net, answers)
        assert walked == traverse(ref, answers), answers
        for qid, (_, keep) in conditions.items():
            if answers.get(qid) not in conditions[qid]:
                kept, asked = _walk(net, {**answers, qid: keep})
                assert set(kept.senses) <= set(walked.senses)
                assert (qid in walked.open_questions) == (qid in asked)
    for key in ref.senses:
        reaching = oracle_reaching(net, key)
        assert (reaching is None) == (oracle_reaching(ref, key) is None), key
        if reaching is not None:
            assert traverse(net, reaching) == ((key,), True, ())


def _check_headwords(lexicon, frames, choose, count: int) -> None:
    """Each headword's network raises the reference's CompileError, or
    selects as the reference does under ``_answer_maps``."""
    for headword in lexicon.headwords():
        net = _compiled(compile_ssn, headword, lexicon, frames)
        ref = _compiled(reference_compile_ssn, headword, lexicon, frames)
        if isinstance(ref, str) or isinstance(net, str):
            assert net == ref
            continue
        _selects_as_the_reference(net, ref, _answer_maps(ref, choose, count))


def test_change_network_counts(lexicon, frames, change_ssn):
    # a sieve of the three usage conditions over the tree of all 19
    # senses; the reference reads as 193 nodes and 53 questions
    ref = reference_compile_ssn("change", lexicon, frames)
    assert len(ref.questions()) == 53 and len(node_objects(ref.root)) == 193
    assert isinstance(change_ssn.root, Sieve)
    assert [q.qid for q in change_ssn.root.conditions] == [
        "USAGE used with for", "USAGE used with into", "USAGE used with to"]
    assert len(change_ssn.questions()) == 9
    assert len(node_objects(change_ssn.root)) == 29
    assert len(node_objects(change_ssn.root.tree)) == 25
    # a smaller group's tree is built where a traversal first reaches it,
    # kept, and takes no part in equality
    fresh = compile_ssn("change", lexicon, frames)
    assert list(fresh.root._trees) == [-1]
    pruned = {qid: "absent" for qid in ("USAGE used with for",
                                        "USAGE used with into",
                                        "USAGE used with to")}
    first = traverse(fresh, pruned)
    assert len(fresh.root._trees) == 2 and fresh == change_ssn
    tree = fresh.root.tree_of(list(fresh.root._trees)[1])
    assert traverse(fresh, pruned) == first
    assert fresh.root.tree_of(list(fresh.root._trees)[1]) is tree


USE_RULES = load_rule_table(family_rules_text())


def test_a_group_met_at_two_stages_is_asked_from_each(rules):
    # vb 1 and 2 meet after "about" (vi 1 absent), where "into" tells them
    # apart, and after "over" (vt 1 absent), where only "up" is left
    lx = parse_lexf("E|w|vb|1\nS|1||to grow|used with into\n"
                    "S|2||to shrink|used with up\n\n"
                    "E|w|vi|1\nS|1||to move slowly|used with about\n\n"
                    "E|w|vt|1\nS|1||to hit something|used with over\n")
    frames = build_frames(lx, rules)
    net = compile_ssn("w", lx, frames)
    ref = reference_compile_ssn("w", lx, frames)
    _selects_as_the_reference(net, ref, _answer_maps(
        ref, random.Random(5).choice, 20))
    qids = [q.qid for q in net.questions()]
    assert "USAGE used with into" in qids and "USAGE used with up" in qids


@settings(max_examples=80, deadline=None)
@given(st.one_of(lexf_texts(), use_lexf_texts(), usage_lexf_texts()), st.data())
def test_traversals_equal_the_reference(text, data):
    lx = parse_lexf(accepted(text))
    _check_headwords(lx, build_frames(lx, USE_RULES),
                     lambda options: data.draw(st.sampled_from(options)), 2)


def test_compile_errors_equal_the_reference(rules):
    # two senses with the same frame under a usage condition: the whole
    # group's tree, built at compile time, fails where the reference's
    # first group of them does
    lx = parse_lexf(
        "E|w|vi|1\n"
        "S|2a||grow larger|used with into\n"
        "S|3b||grow smaller|\n"
        "S|4||grow quiet|\n"
        "F|2a|PRED GROW\n"
        "F|3b|PRED GROW\n"
        "F|4|PRED GROW\n")
    frames = build_frames(lx, rules)
    error = _compiled(reference_compile_ssn, "w", lx, frames)
    assert error.startswith("duplicate canonical frames")
    assert _compiled(compile_ssn, "w", lx, frames) == error
    assert (_compiled(compile_ssn, "zzz", lx, frames)
            == _compiled(reference_compile_ssn, "zzz", lx, frames))


@pytest.mark.parametrize("word_government", [False, True])
def test_bundled_traversals_equal_the_reference(rules, word_government):
    lx = wordgov_corpus() if word_government else corpus.load_corpus()
    _check_headwords(lx, build_frames(lx, rules), random.Random(23).choice,
                     10)


@pytest.mark.parametrize("seed", [1, 7])
def test_x16_traversals_equal_the_reference(rules, seed):
    texts = lexgen().generate(16, seed).texts()
    lx = merge_lexicons(*(parse_lexf(text) for text in texts))
    _check_headwords(lx, build_frames(lx, rules), random.Random(seed).choice,
                     1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(lexf_texts(), wide_lexf_texts()), st.data())
def test_wide_traversals_equal_the_reference(rules, text, data):
    # the compile walks the frames' slot trees together and builds from
    # explicit stacks; the reference flattens every frame and recurses
    lx = parse_lexf(accepted(text))
    _check_headwords(lx, build_frames(lx, rules),
                     lambda options: data.draw(st.sampled_from(options)), 1)


SRC = Path(__file__).parents[1] / "src"


def _network_commands(tmp_path, text: str, sentence: str, timeout: int):
    """Run ``ssn``, ``--format dot ssn``, ``parse`` of ``sentence`` and a
    two-line ``discourse`` on the network of "zap" in ``text``, each in a
    fresh interpreter under the default recursion limit: each exits 0
    within ``timeout`` seconds, and the ``ssn`` text is returned."""
    lexf = tmp_path / "zap.lexf"
    lexf.write_text(text, encoding="utf-8")
    story = tmp_path / "story.txt"
    story.write_text(f"{sentence}.\nIt zap.\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outputs = []
    for argv in (["ssn", "--word", "zap"],
                 ["--format", "dot", "ssn", "--word", "zap"],
                 ["parse", "--text", sentence],
                 ["discourse", "--file", str(story)]):
        done = subprocess.run(
            [sys.executable, "-m", "lexigraph.cli", "--lexicon", str(lexf),
             *argv], env=env, capture_output=True, text=True,
            timeout=timeout)
        assert (done.returncode, done.stderr) == (0, ""), argv
        outputs.append(done.stdout)
    return outputs[0]


@pytest.mark.parametrize("senses", [1200, 5000])
def test_a_network_as_deep_as_its_senses_needs_no_recursion(tmp_path, senses):
    """Each sense differs at a position of its own, so the network is a
    chain of questions as deep as the sense count.  Every command that
    compiles, exports or walks it exits 0 in a fresh interpreter, under
    the default recursion limit."""
    _network_commands(tmp_path, wide_lexf(senses), "The milk zap", 300)


def test_network_text_is_linear_in_its_senses(rules):
    # the chain's "other" answers print at one indent, so its text grows
    # as its senses do; it grew with their square (2.96 MB at 1,200 senses)
    per_sense = []
    for senses in (1200, 5000):
        lx = parse_lexf(wide_lexf(senses))
        text = to_text(compile_ssn("zap", lx, build_frames(lx, rules)))
        per_sense.append(len(text.encode()) / senses)
    assert per_sense[1] <= 1.5 * per_sense[0]


@pytest.mark.parametrize("senses", [14, 20, 64])
@pytest.mark.parametrize("lexf,sentence", [
    (particle_lexf, "The milk zap p3 the cup"),
    (object_lexf, "The milk zap the thing3")], ids=["usage", "object"])
def test_independent_conditions_do_not_multiply_a_network(tmp_path, senses,
                                                          lexf, sentence):
    """One sense per usage condition (or specified object), each its own:
    the network is a sieve of one condition per sense over one tree, so
    its text grows as its senses do, and every command exits 0 within 20
    seconds (well under a second each where it was measured).  Each
    condition doubled the tree: 32,751 questions and 849 ms of compiling
    at 14 senses."""
    text = _network_commands(tmp_path, lexf(senses), sentence, 20)
    assert len(text.encode()) < 200 * senses
    lx = parse_lexf(lexf(senses))
    net = compile_ssn("zap", lx, build_frames(lx, load_rules()))
    assert len(net.root.conditions) == senses
    assert len(net.questions()) < 2 * senses


def test_analysis_is_freed_without_the_cycle_collector():
    # build_frames and compile_ssn keep no reference cycle, so dropping the
    # results drops every reference they took to the lexicon and its
    # records at once, not at the next full collection.  Both are tuples,
    # which take no weak reference, so their references are counted.
    lx = corpus.load_corpus()
    rules = load_rules()
    sense = lx.entries[0]
    lx.sense_keys(), lx.headwords()  # the lexicon's own indexes hold records
    before = sys.getrefcount(lx), sys.getrefcount(sense)
    gc.disable()
    try:
        frames = build_frames(lx, rules)
        networks = build_all_ssns(lx, frames)
        assert networks
        del frames, networks
        assert (sys.getrefcount(lx), sys.getrefcount(sense)) == before
    finally:
        gc.enable()


def _namespace_anchor(module):
    """One object that lives as long as the module's namespace: a class or
    function it defines, else the module itself."""
    for value in vars(module).values():
        if callable(value) and getattr(value, "__module__", None) == module.__name__:
            return value
    return module


def test_reimported_modules_are_freed():
    # module-level type aliases and class annotations must not pin
    # lexigraph classes in a process-wide cache: every module of a
    # re-imported copy is freed once dropped
    def ours(m):
        return m == "lexigraph" or m.startswith("lexigraph.")

    saved = {m: sys.modules.pop(m) for m in [m for m in sys.modules if ours(m)]}
    try:
        package = importlib.import_module("lexigraph")
        names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
        modules = [package] + [importlib.import_module(f"lexigraph.{name}")
                               for name in names]
        gone = {m.__name__: weakref.ref(_namespace_anchor(m)) for m in modules}
        del package, modules
    finally:
        for m in [m for m in sys.modules if ours(m)]:
            del sys.modules[m]
        sys.modules.update(saved)
    gc.collect()
    assert {"lexigraph.cli", "lexigraph.lexicon", "lexigraph.ssn"} <= set(gone)
    assert [name for name, ref in gone.items() if ref() is not None] == []
