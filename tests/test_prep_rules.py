from __future__ import annotations

import pytest

from lexigraph.lexicon import PartOfSpeech
from lexigraph.prep_rules import (
    PrepClassificationError,
    PrepSpecKind,
    RuleTable,
    classify_prep_sense,
    load_rule_table,
)


def test_result_characterization(cues, rules):
    sense = classify_prep_sense(
        "used as a function word to indicate the result of an action",
        "into", cues, rules)
    assert sense.is_function_word_sense
    assert (PrepSpecKind.OBJECT_CHARACTERIZATION, "result") in sense.specs


def test_type_list_restriction(cues, rules):
    sense = classify_prep_sense(
        "used as a function word to indicate an age, a time, a state",
        "at", cues, rules)
    kinds = {k for k, _ in sense.specs}
    payloads = {p for _, p in sense.specs}
    assert kinds == {PrepSpecKind.OBJECT_RESTRICTION}
    assert payloads == {"age", "time", "state"}


def test_cross_reference_in(cues, rules):
    sense = classify_prep_sense("with reference to", "in", cues, rules)
    assert not sense.is_function_word_sense
    assert sense.specs == ()
    assert sense.cross_ref == "with reference to"
    assert sense.slot_action == ("RESPECT", "RESTRICT")


def test_context_condition_and_characterization(cues, rules):
    on = classify_prep_sense(
        "used as a function word to indicate the presence of an action in "
        "the surrounding context", "on", cues, rules)
    assert on.specs[0][0] is PrepSpecKind.CONTEXT_CONDITION
    over = classify_prep_sense(
        "used as a function word to indicate something that is enveloped "
        "or covered", "over", cues, rules)
    assert over.specs[0][0] is PrepSpecKind.CONTEXT_CHARACTERIZATION


def test_unclassifiable_definition_raises(cues, rules):
    with pytest.raises(PrepClassificationError):
        classify_prep_sense("move quickly to one side", "odd", cues, rules)


def test_every_corpus_prep_sense_classifies(lexicon, cues, rules):
    # no silent drops: every prep sense yields specs or a cross-reference
    preps = [s for s in lexicon.entries if s.pos is PartOfSpeech.PREP]
    assert preps
    for s in preps:
        sense = classify_prep_sense(s.raw_definition, s.headword, cues, rules)
        assert sense.specs or sense.cross_ref


def test_slot_action_table(rules):
    assert rules.slot_action("in", "BECOME-DIFFERENT") == ("RESPECT", "RESTRICT")
    assert rules.slot_action("into", "BECOME-DIFFERENT") == ("TO-STATE", "FILL")
    assert rules.slot_action("to", "BECOME-DIFFERENT") == ("TO-STATE", "FILL")
    assert rules.slot_action("from", "BECOME-DIFFERENT") == ("FROM-STATE", "FILL")
    assert rules.slot_action("by", "BECOME-DIFFERENT") == ("AGENT", "FILL")
    assert rules.slot_action("with", "BECOME-DIFFERENT") == ("INSTRUMENT", "FILL")
    assert rules.slot_action("aboard", "BECOME-DIFFERENT") is None
    assert rules.slot_action("with", "PENETRATE") is None


def test_slot_action_deterministic(rules):
    for _ in range(3):
        assert rules.slot_action("in", "BECOME-DIFFERENT") == (
            "RESPECT", "RESTRICT")


@pytest.mark.parametrize("row,message", [
    ("into\tBECOME-DIFFERENT\t\tFILL", "line 2: empty slot"),
    ("into\tBECOME-DIFFERENT\tTO-STATE\tfill",
     "line 2: action 'fill' is neither FILL nor RESTRICT"),
    ("into\tBECOME-DIFFERENT\tTO-STATE\tADD", "line 2: action 'ADD'"),
    ("into\tBECOME-DIFFERENT\tTO-STATE", "line 2: need 4 columns"),
], ids=["empty-slot", "lowercase-action", "unknown-action", "three-columns"])
def test_malformed_rule_row_names_its_line(row, message):
    text = "# prep\tfamily\tslot\taction\n" + row + "\n"
    with pytest.raises(ValueError, match=message):
        load_rule_table(text)


def test_rule_table_rejects_empty_column_or_unknown_action():
    with pytest.raises(ValueError, match="empty action"):
        RuleTable([("into", "BECOME-DIFFERENT", "TO-STATE", "")])
    with pytest.raises(ValueError, match="empty preposition"):
        RuleTable([("", "BECOME-DIFFERENT", "TO-STATE", "FILL")])
    with pytest.raises(ValueError, match="neither FILL nor RESTRICT"):
        RuleTable([("into", "BECOME-DIFFERENT", "TO-STATE", "ADD-SLOT")])
    table = RuleTable([("in", "BECOME-DIFFERENT", "RESPECT", "RESTRICT")])
    assert table.slot_action("in", "BECOME-DIFFERENT") == ("RESPECT", "RESTRICT")
