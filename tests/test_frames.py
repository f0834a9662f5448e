from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    PHRASAL_LEXF,
    UNKNOWN_SUBSENSE_LEXF,
    accepted,
    canonical_paths,
    change_key,
    chain_lexf,
    chain_word,
    first_diff,
    flat_group,
    lexf_texts,
    lexgen,
    usage_lexf_texts,
    use_lexf_texts,
    wordgov_corpus,
)
from lexigraph.cli import run
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import (
    Descriptor,
    Frame,
    RuleTable,
    SeedGrammarError,
    Slot,
    _apply_use_to,
    _FrameDerivation,
    build_frames,
    frame_to_text,
    render_condition,
    slot_order_key,
)
from lexigraph.lexicon import (
    Lexicon,
    PartOfSpeech,
    ResolutionError,
    SenseKey,
    merge_lexicons,
    parse_definition,
    parse_lexf,
    parse_sense,
    senses_of,
)
from lexigraph.parser import (
    SentenceContext,
    chunk_sentence,
    disambiguate,
    parse_discourse,
)
from lexigraph.reduction import ReductionContext
from lexigraph.ssn import CompileError, compile_ssn


def find_slot(frame: Frame, name: str):
    def walk(slots):
        for s in slots:
            if s.name == name:
                return s
            hit = walk(s.children)
            if hit is not None:
                return hit
        return None
    return walk(frame.slots)


def all_respects(frame: Frame) -> tuple[str, ...]:
    slot = find_slot(frame, "RESPECT")
    return slot.restrictions if slot else ()


# ---------------------------------------------------------------------------
# seeds

def test_seed_frame_sense_one_structure(frames):
    f1 = frames[change_key("1")]
    assert f1.predicate == "BECOME-DIFFERENT"
    assert ("NE", "FROM-STATE", "TO-STATE") in f1.conditions
    subj = find_slot(f1, "SUBJ")
    assert subj.case == ("PAT", "AGT") and subj.bind is None
    acc = find_slot(f1, "ACCIDENTAL-ATTRS")
    respect = find_slot(f1, "RESPECT")
    assert respect is not None
    nested = {s.name for s in respect.children}
    assert nested == {"TIME1", "FROM-STATE", "TIME2", "TO-STATE"}
    assert find_slot(f1, "ESSENTIAL-ATTRS") is not None
    assert acc is not None


def test_seed_frame_sense_two_bindings(frames):
    f2 = frames[change_key("2")]
    assert f2.predicate == "BECOME-DIFFERENT"
    subj = find_slot(f2, "SUBJ")
    assert subj.bind == "FROM-STATE"
    result = find_slot(f2, "RESULT")
    assert result.bind == "TO-STATE"
    assert {c.name for c in result.children} == {"TIME2"}
    assert {c.name for c in subj.children} == {"TIME1"}


def test_sense_without_seed_lines_takes_no_seeded_frame(frames):
    # neither sense carries seed lines, nor has a label parent in the
    # lexicon or a resolved genus arc
    for label in ("3", "4a"):
        assert frames[change_key(label)].provenance == (
            "provisional predicate",)


def test_bad_seed_line_raises(rules):
    lx = parse_lexf("E|w|vi|1\nS|1||move about|\nF|1|SLOT SUBJ WIGGLE x\n")
    with pytest.raises(SeedGrammarError,
                       match="^w:vi:1:1: unknown slot action 'WIGGLE'$"):
        build_frames(lx, rules)


@pytest.mark.parametrize("path", ["SUBJ..OBJ", ".X", "X."])
def test_slot_path_with_an_empty_component_raises(rules, path, tmp_path,
                                                  capsys):
    """Such a path once made a slot with no name: ``frames`` printed a
    blank slot line with ``OBJ = x`` under it."""
    text = f"E|w|vi|1\nS|1||move about|\nF|1|SLOT {path} VALUE x\n"
    error = f"w:vi:1:1: empty component in slot path {path!r}"
    with pytest.raises(SeedGrammarError, match=f"^{re.escape(error)}$"):
        build_frames(parse_lexf(text), rules)
    lexf = tmp_path / "w.lexf"
    lexf.write_text(text, encoding="utf-8")
    assert run(["--lexicon", str(lexf), "frames", "--word", "w"]) == 2
    assert capsys.readouterr() == ("", f"lexigraph: {error}\n")


def test_root_seed_without_pred_gets_provisional_predicate(rules):
    lx = parse_lexf("E|alpha|vi|1\nS|1||to move|\nS|1a||to move fast|\n"
                    "F|1|SLOT SUBJ BIND FROM-STATE\n"
                    "F|1a|SLOT MANNER RESTRICT fast\n")
    frames = build_frames(lx, rules)
    root = frames[SenseKey("alpha", PartOfSpeech.VI, 1, "1")]
    assert (root.predicate, root.provisional) == ("MOVE", True)
    assert find_slot(root, "SUBJ").bind == "FROM-STATE"
    assert root.provenance == ("seeded",)
    # a subsense seed still inherits its parent's predicate
    sub = frames[SenseKey("alpha", PartOfSpeech.VI, 1, "1a")]
    assert (sub.predicate, sub.provisional) == ("MOVE", True)
    assert find_slot(sub, "MANNER").restrictions == ("fast",)


# A subsense whose label parent carries no seed lines, under a seeded root
SUBSENSE_LEXF = ("E|alpha|vi|1\nS|1||to move|\n"
                 "S|1a|subject:water|to move fast|\n"
                 "S|1a(1)||to move very fast|\n"
                 "F|1|PRED MOVE\nF|1|SLOT SUBJ CASE PAT|AGT\n")


def test_seeded_subsense_keeps_what_an_unseeded_parent_gives(rules):
    key = SenseKey("alpha", PartOfSpeech.VI, 1, "1a(1)")
    plain = build_frames(parse_lexf(SUBSENSE_LEXF), rules)[key]
    assert find_slot(plain, "SUBJ").restrictions == ("water",)
    assert plain.provenance[-1] == "specialized from alpha:vi:1:1a"
    seeded = build_frames(parse_lexf(
        SUBSENSE_LEXF + "F|1a(1)|SLOT MANNER RESTRICT very fast\n"), rules)
    assert seeded[key] == plain._replace(
        slots=plain.slots + (Slot("MANNER", restrictions=("very fast",)),))


def test_seeded_subsense_keeps_its_parents_genus_frame(lexicon, rules):
    # scoot 1 derives from change 2 along its resolved arc; 1a from 1
    key = SenseKey("scoot", PartOfSpeech.VI, 1, "1a")

    def scoot_frame(seed: str) -> Frame:
        text = ("E|scoot|vi|1\nS|1||to change into a new place|\n"
                f"S|1a||to change quickly|\n{seed}"
                "R|scoot:vi:1:1|change|change:vi:1:2\n")
        return build_frames(merge_lexicons(lexicon, parse_lexf(text)),
                            rules)[key]

    plain = scoot_frame("")
    assert (plain.predicate, plain.provisional) == ("BECOME-DIFFERENT", False)
    assert find_slot(plain, "SUBJ").bind == "FROM-STATE"
    assert find_slot(plain, "RESULT").filler == "a new place"
    assert scoot_frame("F|1a|SLOT MANNER RESTRICT quickly\n") == plain._replace(
        slots=plain.slots + (Slot("MANNER", restrictions=("quickly",)),))


# ---------------------------------------------------------------------------
# specialization

def test_specialize_1a(frames):
    f = frames[change_key("1a")]
    assert all_respects(f) == ("characteristic, property, or tendency",)
    to_state = find_slot(f, "TO-STATE")
    assert set(to_state.restrictions) == {
        'becomes deprived of ("lose")', 'comes to have ("acquire")'}


def test_specialize_1e(frames):
    f = frames[change_key("1e")]
    assert all_respects(f) == ("phase of the moon",)
    subj = find_slot(f, "SUBJ")
    assert subj.filler == "moon"
    assert "the moon" in subj.restrictions
    through = find_slot(f, "THROUGH-STATE")
    assert through is not None and through.filler == "new moon"
    assert find_slot(f, "TIMEX") is not None


# a subsense with no seed line, usage note or subject restriction of its
# own, under a parent with a usage note
IDENTITY_LEXF = """\
E|w|vi|1
S|1||to go|used with up
S|1a||to go far|
F|1|PRED GO
F|1|SLOT SUBJ CASE PAT|AGT
"""


def test_identity_specialization(rules):
    frames = build_frames(parse_lexf(IDENTITY_LEXF), rules)
    key = SenseKey("w", PartOfSpeech.VI, 1, "1a")
    parent, f = frames[key._replace(label="1")], frames[key]
    assert parent.conditions == (("USED-WITH", ("up",)),)
    # all but the parent's usage condition, its sense and its provenance
    assert frame_first_diff(parent._replace(conditions=()), f) is None
    assert f.slots is parent.slots and f.sense == key
    assert f.provenance == ("seeded", "specialized from w:vi:1:1")


def test_specialization_preserves_ne_condition(frames):
    for label in ("1a", "1b(1)", "1b(2)", "1c", "1d", "1e", "1f", "1g",
                  "1h", "1i"):
        assert ("NE", "FROM-STATE", "TO-STATE") in frames[change_key(label)].conditions


def test_respect_restrictions_reproduce_exactly(frames):
    expected = {
        "1a": ("characteristic, property, or tendency",),
        "1b(1)": ("form, appearance, position, state, or stage",),
        "1b(2)": ("facial complexion",),
        "1c": ("size, quantity, number, degree, value, intensity, power, "
               "authority, reputation, wealth, amount, strength, etc.",),
        "1d": ("customs, methods, or attitudes specif religious attitudes",),
        "1e": ("phase of the moon",),
        "1f": ("capacity of being sour (e.g. disposition, taste, smell, "
               "acidity)",
               "capacity of being tainted (e.g. subject to putrefaction, "
               "corruption, moral contamination)"),
        "1g": ("means of conveyance",
               "vehicle or transportation line being used"),
        "1h": ("register of the voice",
               "voice's tone, pitch, or intensity"),
        "1i": ("method, tempo, or approach",),
    }
    got = {label: all_respects(frames[change_key(label)])
           for label in expected}
    assert got == expected
    assert sum(len(v) for v in got.values()) == 13


# ---------------------------------------------------------------------------
# applying a use

def applied(base: Frame, use, rules) -> tuple:
    """``base`` with ``use`` applied as the frame derivation applies a
    genus use (``_apply_use_to``), the deltas and the residue."""
    slots, deltas, residue = _apply_use_to(base.slots, base.predicate, use,
                                           rules)
    return base._replace(slots=slots), deltas, residue


def test_apply_use_coalify(lexicon, frames, rules):
    # coalify's frame derives along its resolved arc to change 2
    key = SenseKey("coalify", PartOfSpeech.VB, 1, "1")
    (sense,) = lexicon._by_key[key]
    _, base, deltas = frames.uses[id(sense), "change"]
    assert base is frames[change_key("2")]
    fills = {d.path[-1]: d.value for d in deltas if d.kind == "FILL"}
    # the to-state of sense 2 is the RESULT slot via its binding
    assert fills["RESULT"] == "coal"
    assert fills["AGENT"] == "the process of coalification"
    result = find_slot(frames[key], "RESULT")
    assert result.bind == "TO-STATE" and result.filler == "coal"
    subj = find_slot(frames[key], "SUBJ")
    assert subj.case == ("PAT",)
    assert frames[key].provenance[-1] == "applied use"


def test_apply_use_deform(lexicon, frames, rules):
    base = frames[change_key("1")]
    sense = [s for s in lexicon.entries if s.headword == "deform"][0]
    _, deltas, _ = applied(base, parse_sense(sense), rules)
    assert [(d.kind, d.path[-1], d.value) for d in deltas] == [
        ("RESTRICT", "RESPECT", "shape")]


def test_apply_use_no_differentiae(frames, rules):
    base = frames[change_key("1")]
    use = parse_definition("change", PartOfSpeech.VI)
    frame, deltas, _ = applied(base, use, rules)
    assert deltas == ()
    assert frame_first_diff(base, frame) is None


def test_apply_use_is_additive(lexicon, frames, rules):
    # never deletes a slot or weakens an existing restriction
    def slot_names(frame):
        out = set()

        def walk(slots):
            for s in slots:
                out.add(s.name)
                walk(s.children)
        walk(frame.slots)
        return out

    def restriction_sets(frame):
        out = {}

        def walk(slots):
            for s in slots:
                out[s.name] = set(s.restrictions)
                walk(s.children)
        walk(frame.slots)
        return out

    for base_label in ("1", "2"):
        base = frames[change_key(base_label)]
        for sense in lexicon.entries:
            if not sense.pos.is_verb or sense.is_synonym_line:
                continue
            if sense.headword == "change":
                continue
            frame, _, _ = applied(base, parse_sense(sense), rules)
            assert slot_names(base) <= slot_names(frame)
            before = restriction_sets(base)
            after = restriction_sets(frame)
            for name, restr in before.items():
                assert restr <= after[name]


def test_apply_use_residue_never_drops(lexicon, frames, rules):
    base = frames[change_key("1")]
    sense = [s for s in lexicon.entries if s.headword == "range"][0]
    _, deltas, residue = applied(base, parse_sense(sense), rules)
    assert not deltas
    assert any("within" in r for r in residue)


def test_apply_use_fill_requires_unfilled_slot(lexicon, frames, rules):
    # differ carries two from...to pairs: the second pair cannot re-fill
    base = frames[change_key("1")]
    sense = [s for s in lexicon.entries if s.headword == "differ"][0]
    _, deltas, residue = applied(base, parse_sense(sense), rules)
    from_fills = [d for d in deltas
                  if d.kind == "FILL" and d.path[-1] == "FROM-STATE"]
    assert len(from_fills) == 1
    assert any("already filled" in r for r in residue)


def test_apply_use_empty_object_fills_descriptor(lexicon, frames, rules):
    base = frames[change_key("2")]
    sense = [s for s in lexicon.entries if s.headword == "run into"][0]
    frame, deltas, _ = applied(base, parse_sense(sense), rules)
    fills = [d for d in deltas if d.kind == "FILL"]
    assert fills
    result = find_slot(frame, "RESULT")
    assert isinstance(result.filler, Descriptor)


def test_apply_use_shares_untouched_slots(lexicon, frames, rules):
    # a use rebuilds only the slots on the paths it changes
    for base_label in ("1", "2"):
        base = frames[change_key(base_label)]
        for sense in lexicon.entries:
            if not sense.pos.is_verb or sense.is_synonym_line:
                continue
            after = {s.name: s
                     for s in applied(base, parse_sense(sense), rules)[0].slots}
            for slot in base.slots:
                assert after[slot.name] is slot or after[slot.name] != slot
    base = frames[change_key("1")]
    deform = [s for s in lexicon.entries if s.headword == "deform"][0]
    frame, deltas, _ = applied(base, parse_sense(deform), rules)
    assert [d.path[0] for d in deltas] == ["ACCIDENTAL-ATTRS"]
    for old, new in zip(base.slots, frame.slots, strict=True):
        assert (new is old) == (old.name != "ACCIDENTAL-ATTRS")


# seed lines that name the slots and conditions out of their order
HAND_ORDER_LEXF = """\
E|w|vi|1
S|1||to become different|used with to
F|1|PRED BECOME-DIFFERENT
F|1|SLOT MANNER
F|1|SLOT SUBJ CASE PAT|AGT
F|1|SLOT ACCIDENTAL-ATTRS.RESPECT.TO-STATE
F|1|SLOT ACCIDENTAL-ATTRS.RESPECT.FROM-STATE
F|1|COND SUBJ NE TO-STATE
F|1|COND FROM-STATE NE TO-STATE
"""


def test_operations_keep_hand_built_frames_in_slot_order(rules):
    # a frame is built in slot order, and a use applied to it keeps it so
    base = build_frames(parse_lexf(HAND_ORDER_LEXF), rules)[
        SenseKey("w", PartOfSpeech.VI, 1, "1")]
    use = parse_definition("to change slowly from ice into coal",
                           PartOfSpeech.VI)
    for frame in (base, applied(base, use, rules)[0]):
        assert [s.name for s in frame.slots] == [
            "SUBJ", "MANNER", "ACCIDENTAL-ATTRS"]
        respect = find_slot(frame, "RESPECT")
        assert [s.name for s in respect.children] == ["FROM-STATE",
                                                      "TO-STATE"]
        assert frame.conditions == (("NE", "FROM-STATE", "TO-STATE"),
                                    ("NE", "SUBJ", "TO-STATE"),
                                    ("USED-WITH", ("to",)))


# ---------------------------------------------------------------------------
# canonical positions and the first difference

def frame_first_diff(*frames):
    """The first difference of ``frames`` as a network finds it: (display
    path, [the value of each frame there]), or None."""
    group = dict(enumerate(frames))
    found = first_diff(list(group), *flat_group(group))
    return None if found is None else (found[1], [found[2][i] for i in group])


def test_canonicalize_idempotent(frames):
    f = frames[change_key("1")]
    assert canonical_paths(f) == canonical_paths(f)


def test_canonicalize_order_independent():
    a = Frame("X", PartOfSpeech.VI, slots=(Slot("SUBJ"), Slot("MANNER")))
    b = Frame("X", PartOfSpeech.VI, slots=(Slot("MANNER"), Slot("SUBJ")))
    assert canonical_paths(a) == canonical_paths(b)
    assert frame_first_diff(a, b) is None


def test_diff_identity(frames):
    f = frames[change_key("1c")]
    assert frame_first_diff(f, f) is None


def test_diff_sense_one_vs_two_at_subject_binding(frames):
    path, values = frame_first_diff(frames[change_key("1")],
                                    frames[change_key("2")])
    assert path == ("slots", "SUBJ", "bind")
    assert values == ["", "FROM-STATE"]


def test_diff_1a_vs_1b1_at_respect(frames):
    path, values = frame_first_diff(frames[change_key("1a")],
                                    frames[change_key("1b(1)")])
    assert path[-2:] == ("RESPECT", "restrictions")
    assert values == [("characteristic, property, or tendency",),
                      ("form, appearance, position, state, or stage",)]


def test_group_first_diff_on_subsenses(frames):
    group = {change_key(l): frames[change_key(l)]
             for l in ("1", "1a", "1b(1)", "1d", "1f", "1g", "1i")}
    _, path, values = first_diff(list(group), *flat_group(group))
    assert path[-2:] == ("RESPECT", "restrictions")
    assert values[change_key("1")] == ()


def test_all_change_frames_distinct(frames):
    keys = [k for k in frames if k.headword == "change"]
    assert len(keys) == 19
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            assert frame_first_diff(frames[a], frames[b]) is not None, (a, b)


def test_provisional_predicates(frames):
    f3 = frames[change_key("3")]
    assert f3.provisional and f3.predicate == "DISROBE"
    f4a = frames[change_key("4a")]
    assert f4a.provisional and f4a.predicate == "ACCEPT"


def test_derived_frames_follow_resolved_arcs(lexicon, frames):
    # using senses inherit the seed predicate through their resolution
    for headword in ("curdle", "melt", "deform", "turn"):
        for s in senses_of(lexicon, headword):
            f = frames[s.key]
            assert f.predicate == "BECOME-DIFFERENT", s.key
            assert not f.provisional


def test_usage_conditions_on_frames(frames):
    f2a = frames[change_key("2a")]
    assert ("USED-WITH", ("into",)) in f2a.conditions
    f2b = frames[change_key("2b")]
    assert ("USED-WITH", ("to",)) in f2b.conditions
    # derived frames shed the target's usage conditions
    turn_6b2 = frames[SenseKey("turn", PartOfSpeech.VI, 1, "6b(2)")]
    assert not any(c[0] == "USED-WITH" for c in turn_6b2.conditions)


def test_frame_dump_stable(frames):
    text1 = frame_to_text(frames[change_key("1e")])
    text2 = frame_to_text(frames[change_key("1e")])
    assert text1 == text2
    assert "RESPECT" in text1 and "phase of the moon" in text1


# ---------------------------------------------------------------------------
# derivation along resolved arcs: phrasal genus words, cycles, deep chains

def test_phrasal_genus_resolution_is_followed(rules):
    lx = parse_lexf(PHRASAL_LEXF)
    frames = build_frames(lx, rules)
    quit_frame = frames[SenseKey("quit", PartOfSpeech.VI, 1, "1")]
    assert quit_frame.predicate == "GIVE-UP"
    assert not quit_frame.provisional
    assert quit_frame.provenance == ("seeded", "applied use")


def test_cycle_derives_from_a_provisional_frame(rules):
    lx = parse_lexf("E|alpha|vi|1\nS|1||to beta slowly|\n"
                    "E|beta|vi|1\nS|1||to alpha quickly|\n"
                    "R|alpha:vi:1|beta|beta:vi:1\n"
                    "R|beta:vi:1|alpha|alpha:vi:1\n")
    frames = build_frames(lx, rules)
    alpha = frames[SenseKey("alpha", PartOfSpeech.VI, 1, "1")]
    beta = frames[SenseKey("beta", PartOfSpeech.VI, 1, "1")]
    # alpha is derived first; beta, reached through it, meets alpha still
    # open and derives from alpha's provisional frame, which is not kept
    assert beta.predicate == alpha.predicate == "BETA"
    assert beta.provisional and alpha.provisional
    assert beta.provenance == ("provisional predicate", "applied use")
    assert alpha.provenance == beta.provenance + ("applied use",)
    assert find_slot(beta, "MANNER").restrictions == ("quickly",)
    assert find_slot(alpha, "MANNER").restrictions == ("quickly", "slowly")


def test_deep_chain_derives_without_recursion(rules):
    depth = 1500
    lx = parse_lexf(chain_lexf(depth))
    frames = build_frames(lx, rules)
    assert len(frames) == depth
    deepest = frames[SenseKey(chain_word(depth - 1), PartOfSpeech.VI, 1, "1")]
    assert deepest.predicate == "MOVE"
    assert deepest.provenance == (("provisional predicate",)
                                  + ("applied use",) * (depth - 1))


def test_unknown_target_with_label_parent_is_rejected(rules):
    # the target's label parent is a sense, the target is none: the frames
    # reject the record with the graph's message, and make no frame for it
    lx = parse_lexf(UNKNOWN_SUBSENSE_LEXF)
    message = "^unknown target sense beta:vi:1:1b$"
    with pytest.raises(ResolutionError, match=message):
        apply_resolutions(build_graph(lx), lx.resolutions)
    with pytest.raises(ResolutionError, match=message):
        build_frames(lx, rules)


def test_equal_sort_keys_keep_file_order(rules):
    # labels 1 and 01 sort equal; the frames of both are made whatever
    # order their seed lines come in, and the lexicon lists them in file
    # order
    text = ("E|alpha|vi|1\nS|1||to move|\nS|01||to move fast|\n"
            "F|01|PRED FAST\nF|1|PRED MOVE\n")
    swapped = text.replace("F|01|PRED FAST\nF|1|PRED MOVE\n",
                           "F|1|PRED MOVE\nF|01|PRED FAST\n")
    lx = parse_lexf(text)
    assert [k.label for k in lx._sorted_keys] == ["1", "01"]
    frames = build_frames(lx, rules)
    assert frames == build_frames(parse_lexf(swapped), rules)
    assert [frames[k].predicate for k in lx._sorted_keys] == ["MOVE", "FAST"]


def family_rules(lx) -> RuleTable:
    """Slot rules for every predicate the lexicon's frames carry."""
    families = sorted({f.predicate for f in build_frames(lx, RuleTable()).values()})
    return RuleTable([(prep, family, slot, action)
                      for family in families
                      for prep, slot, action in (
                          ("into", "TO-STATE", "FILL"),
                          ("to", "TO-STATE", "FILL"),
                          ("from", "FROM-STATE", "FILL"),
                          ("with", "INSTRUMENT", "RESTRICT"))])


def assert_in_slot_order(frame: Frame):
    def walk(slots):
        keys = [slot_order_key(s.name) for s in slots]
        assert keys == sorted(set(keys))
        for s in slots:
            walk(s.children)
    walk(frame.slots)
    assert list(frame.conditions) == sorted(frame.conditions,
                                            key=render_condition)


# a sentence with each kind of differentia, one with a pronoun subject
# that a discourse reads as the entity before it, and one with an adverb
# before the verb; "{}" is the verb
SENTENCES = ("The glim {} into the flonk with a zorb",
             "It {} from the glim to the flonk slowly",
             "The flonk often {}")


def instantiated_frames(lx, frames, rules) -> list[Frame]:
    """The frames ``disambiguate`` and ``parse_discourse`` instantiate for
    ``SENTENCES`` on each one-word verb headword whose network compiles."""
    out = []
    for headword in lx.verb_headwords:
        try:
            net = compile_ssn(headword, lx, frames)
        except CompileError:  # siblings with one frame
            continue
        sentences = [s.format(headword) for s in SENTENCES]
        chunked = [chunk_sentence(s, lx) for s in sentences]
        if any(SentenceContext(c).verb is None
               or SentenceContext(c).verb.lemma != headword for c in chunked):
            continue  # a headword of more words, or one read as a noun
        for chunks in chunked:
            out.append(disambiguate(headword, chunks, net, frames, rules,
                                    lx).frame)
        results, _ = parse_discourse(sentences, lx, {headword: net}, frames,
                                     rules)
        out += [r.frame for r in results]
    return out


def assert_built_and_instantiated_in_order(lx, frames, rules) -> int:
    """Every frame built, every frame with a use of the lexicon applied,
    and every frame a parse instantiates, is in slot order; the count of
    frames a parse instantiated."""
    uses = [parse_sense(s) for s in lx.entries
            if s.pos.is_verb and not s.is_synonym_line]
    for frame in frames.values():
        assert_in_slot_order(frame)
        for use in uses[:4]:
            assert_in_slot_order(applied(frame, use, rules)[0])
    parsed = instantiated_frames(lx, frames, rules)
    for frame in parsed:
        assert_in_slot_order(frame)
    return len(parsed)


@settings(max_examples=40, deadline=None)
@given(st.one_of(lexf_texts(), use_lexf_texts(), usage_lexf_texts()))
def test_frames_keep_slots_and_conditions_in_order(text):
    lx = parse_lexf(accepted(text))
    rules = family_rules(lx)
    assert_built_and_instantiated_in_order(lx, build_frames(lx, rules), rules)


@pytest.mark.parametrize("source", ["corpus", "x16-7", "x16-11"])
def test_bundled_and_x16_frames_keep_slots_and_conditions_in_order(
        rules, source):
    if source == "corpus":
        lx = wordgov_corpus()
    else:
        lx = merge_lexicons(*(parse_lexf(t) for t in lexgen().generate(
            16, int(source.split("-")[1])).texts()))
    frames = build_frames(lx, rules)
    assert assert_built_and_instantiated_in_order(lx, frames, rules) > 0


@settings(max_examples=40, deadline=None)
@given(st.one_of(lexf_texts(), use_lexf_texts()))
def test_use_deltas_equal_apply_use_deltas(text):
    """The reduction's deltas of a use (``ReductionContext.use_deltas``)
    are those of applying the use to its genus frame, whether the
    derivation kept them or the reduction applies the use itself; and
    those the derivation kept are those of the use it applied."""
    lx = parse_lexf(accepted(text))
    rules = family_rules(lx)
    frames = build_frames(lx, rules)
    for table in (frames, dict(frames)):  # a plain dict carries no deltas
        ctx = ReductionContext(lx, table, rules)
        for (key, word), target in lx._resolved.items():
            for rec in lx._by_key[key]:
                if word in lx._genus[id(rec)] and not rec.is_synonym_line:
                    assert ctx.use_deltas(rec, word) == applied(
                        frames[target], parse_sense(rec), rules)[1]
    for rec, base, deltas in frames.uses.values():
        assert applied(base, parse_sense(rec), rules)[1] == deltas


# alpha 1a is on a cycle through its label parent: alpha 1 is defined by
# beta 1, resolved to beta 1, which is resolved to alpha 1a
CYCLE_LEXF = """\
E|alpha|vi|1
S|1||to beta slowly|
S|1a||to move fast|

E|beta|vi|1
S|1||to alpha quickly|

R|alpha:vi:1:1|beta|beta:vi:1:1
R|beta:vi:1:1|alpha|alpha:vi:1:1a
"""


@settings(max_examples=40, deadline=None)
@given(lexf_texts())
@example(CYCLE_LEXF)
def test_a_subsense_seed_line_adds_only_its_slot(text):
    # a seed line on a sense with a label parent in the lexicon changes
    # its frame by that line alone, whatever the parent's seed lines and
    # wherever a cycle through it breaks; ZZ is a fresh name, so its slot
    # sorts last
    lx = parse_lexf(accepted(text))
    rules = family_rules(lx)
    frames = build_frames(lx, rules)
    derivation = _FrameDerivation(lx, rules)
    zz = Slot("ZZ", restrictions=("zz",))
    for key in lx._sorted_keys:
        dep = derivation._dependency(key)
        if dep is None or dep[1] is not None:
            continue  # no label parent in the lexicon
        seeds = dict(lx.seed_frames)
        seeds[key] = seeds.get(key, ()) + ("SLOT ZZ RESTRICT zz",)
        seeded = build_frames(Lexicon(lx.entries, seeds, lx.resolutions),
                              rules)
        assert seeded[key] == frames[key]._replace(
            slots=frames[key].slots + (zz,))
