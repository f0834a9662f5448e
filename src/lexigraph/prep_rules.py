"""The table mapping a prepositional phrase to a slot action: given the
preposition and the predicate family of the frame it modifies, the slot
it names and whether it FILLs or RESTRICTs that slot.  The table ships as
data (``data/prep_rules.tsv``)."""
from __future__ import annotations

from typing import Iterable, Optional


_COLUMNS = ("preposition", "predicate family", "slot", "action")


class RuleTable:
    """(prep, predicate family) -> (slot name, action); every column is
    non-empty and every action is FILL or RESTRICT."""

    def __init__(self, rows: Iterable[tuple[str, str, str, str]] = ()):
        self._rows: dict[tuple[str, str], tuple[str, str]] = {}
        for row in rows:
            self._add(*row)

    def _add(self, prep: str, family: str, slot: str, action: str) -> None:
        for name, value in zip(_COLUMNS, (prep, family, slot, action)):
            if not value:
                raise ValueError(f"empty {name}")
        if action not in ("FILL", "RESTRICT"):
            raise ValueError(f"action {action!r} is neither FILL nor RESTRICT")
        self._rows[(prep, family)] = (slot, action)

    def slot_action(self, prep: str, family: str) -> Optional[tuple[str, str]]:
        return self._rows.get((prep, family))


def load_rule_table(text: str) -> RuleTable:
    """TSV with columns prep, predicate-family, slot, action; a malformed
    row raises ValueError naming its line."""
    table = RuleTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"rule table line {lineno}: need 4 columns")
        try:
            table._add(*parts)
        except ValueError as exc:
            raise ValueError(f"rule table line {lineno}: {exc}") from None
    return table
