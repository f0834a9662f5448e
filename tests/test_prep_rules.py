from __future__ import annotations

import pytest

from lexigraph.prep_rules import RuleTable, load_rule_table


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
