"""The table mapping prepositional phrases to slot actions, and the
classification of preposition usage-note definitions.

Function-word definitions uniformly open with "used as a function word to
indicate"; what follows "indicate" is segmented and classified into the
four specification kinds by a cue-word table shipped as data. Definitions
that instead lead with another preposition are cross-reference senses.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .lexicon import split_alternatives


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


class PrepSpecKind(str, Enum):
    OBJECT_RESTRICTION = "OBJECT-RESTRICTION"
    CONTEXT_CONDITION = "CONTEXT-CONDITION"
    OBJECT_CHARACTERIZATION = "OBJECT-CHARACTERIZATION"
    CONTEXT_CHARACTERIZATION = "CONTEXT-CHARACTERIZATION"


class PrepClassificationError(ValueError):
    pass


class PrepSense(NamedTuple):
    prep: str
    specs: tuple[tuple[PrepSpecKind, str], ...]
    cross_ref: Optional[str] = None         # defining phrase of a non-primitive sense
    slot_action: Optional[tuple[str, str]] = None

    @property
    def is_function_word_sense(self) -> bool:
        return self.cross_ref is None


_PREAMBLE = re.compile(r"^used as a function word to indicate\s+(.+)$")

_KNOWN_PREPS = {
    "in", "into", "to", "from", "by", "with", "within", "between", "for",
    "against", "on", "at", "through", "over", "upon", "of", "under",
    "about", "toward", "towards",
}


class CueTable:
    """kind -> cue phrases; drives payload classification. Data, not code."""

    def __init__(self, rows: Iterable[tuple[str, str]] = ()):
        self._cues: dict[PrepSpecKind, list[str]] = {k: [] for k in PrepSpecKind}
        for kind, cue in rows:
            self._cues[PrepSpecKind(kind)].append(cue.lower())

    def match(self, kind: PrepSpecKind, segment: str) -> Optional[str]:
        """The cue of this kind the segment carries, or None."""
        seg = segment.lower()
        words = seg.split()
        tail = words[-1].rstrip(".,;") if words else ""
        for cue in self._cues[kind]:
            if cue == seg or cue == tail or cue in seg:
                return cue
        return None


def classify_prep_sense(definition: str, prep: str, cues: CueTable,
                        rules: Optional[RuleTable] = None,
                        family: str = "BECOME-DIFFERENT") -> PrepSense:
    """Classify one preposition definition. Function-word senses yield one
    spec per payload segment; a definition led by another preposition is a
    cross-reference; anything else is an error (verb-form definitions are
    out of scope)."""
    text = definition.strip()
    action = rules.slot_action(prep, family) if rules is not None else None
    m = _PREAMBLE.match(text)
    if m:
        payload = m.group(1).strip()
        specs: list[tuple[PrepSpecKind, str]] = []
        if cues.match(PrepSpecKind.CONTEXT_CONDITION, payload):
            body = re.sub(r"^the presence of\s+", "", payload)
            specs.append((PrepSpecKind.CONTEXT_CONDITION, body))
        elif payload.startswith("something that is"):
            body = payload[len("something that is"):].strip()
            specs.append((PrepSpecKind.CONTEXT_CHARACTERIZATION, body))
        else:
            for segment in split_alternatives(payload):
                seg = re.sub(r"\s+of an action$", "", segment).strip()
                if not seg:
                    continue
                hit = cues.match(PrepSpecKind.OBJECT_CHARACTERIZATION, seg)
                if hit:
                    specs.append((PrepSpecKind.OBJECT_CHARACTERIZATION, hit))
                    continue
                hit = cues.match(PrepSpecKind.CONTEXT_CHARACTERIZATION, seg)
                if hit:
                    specs.append((PrepSpecKind.CONTEXT_CHARACTERIZATION, seg))
                    continue
                # default: a type the object must satisfy
                words = seg.split()
                head = words[-1].rstrip(".,;") if words else seg
                specs.append((PrepSpecKind.OBJECT_RESTRICTION, head))
        if not specs:
            raise PrepClassificationError(
                f"no classifiable payload in {definition!r}")
        return PrepSense(prep, tuple(specs), None, action)
    first = text.split()[0].lower() if text.split() else ""
    if first in _KNOWN_PREPS:
        return PrepSense(prep, (), text, action)
    raise PrepClassificationError(
        f"not a function-word definition and no preposition cross-reference: "
        f"{definition!r}")


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


def load_cue_table(text: str) -> CueTable:
    """TSV with columns kind, cue."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"cue table line {lineno}: need 2 columns")
        rows.append((parts[0], parts[1]))
    return CueTable(rows)
