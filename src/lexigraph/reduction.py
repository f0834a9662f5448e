"""Non-primitive reduction: four rules applied to a fixpoint, with
re-verifiable evidence for every sense set aside.

Rule order is fixed for determinism: MULTI-CONCEPT, SLOT-FILL,
WORD-GOVERNMENT, OPTIONAL-COMPONENT. Rules are pure per sense; only the
fixpoint loop sequences them.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .frames import Frame, UseDelta, use_deltas, walk_slots
from .lexicon import (
    Lexicon,
    Sense,
    SenseKey,
    head_noun,
    parse_sense,
    senses_of,
)
from .prep_rules import RuleTable

DEFAULT_OPERATORS = frozenset(("attempt", "begin", "cause", "cease", "refuse",
                               "serve"))

RULE_ORDER = ("MULTI-CONCEPT", "SLOT-FILL", "WORD-GOVERNMENT",
              "OPTIONAL-COMPONENT")


class NonprimitiveEvidence(NamedTuple):
    sense: SenseKey
    rule: str
    detail: str

    def render(self) -> str:
        return f"{self.sense.render()}\t{self.rule}\t{self.detail}"


class ReductionReport(NamedTuple):
    initial: int
    set_aside: tuple[NonprimitiveEvidence, ...]
    remaining: tuple[SenseKey, ...]
    iterations: int

    def tallies(self) -> dict[str, int]:
        out = {rule: 0 for rule in RULE_ORDER}
        for ev in self.set_aside:
            out[ev.rule] += 1
        return out

    def to_tsv(self) -> str:
        rows = ["sense\tstatus\trule\tdetail"]
        for ev in self.set_aside:
            rows.append(f"{ev.sense.render()}\tset-aside\t{ev.rule}\t{ev.detail}")
        for key in self.remaining:
            rows.append(f"{key.render()}\tremaining\t\t")
        return "\n".join(rows) + "\n"

    def summary(self) -> str:
        t = self.tallies()
        lines = [
            f"initial verb senses: {self.initial}",
            f"set aside: {len(self.set_aside)}",
        ]
        for rule in RULE_ORDER:
            lines.append(f"  {rule}: {t[rule]}")
        lines.append(f"remaining candidates: {len(self.remaining)}")
        lines.append(f"iterations to fixpoint: {self.iterations}")
        lines.append("note: reverse underivability is not checked; every "
                     "set-aside is unverified in that direction")
        return "\n".join(lines) + "\n"


class ReductionContext:
    """Shared lookups for the rules, which read records of ``lexicon``:
    resolved genus targets (the lexicon's checked resolution map,
    ``Lexicon._resolved``; no graph is built), the genus frame of each
    resolved use, each record's genus words (the lexicon's index, not
    copied) and the prep rule table.  A use's deltas come from a
    ``FrameTable`` built with these ``rules`` over the genus frame that
    ``frames`` holds."""

    def __init__(self, lexicon: Lexicon, frames: dict[SenseKey, Frame],
                 rules: RuleTable):
        self.lexicon = lexicon
        self.frames = frames
        self.rules = rules
        self.genus = lexicon._genus   # genus words by record id
        # keyed by the record's id: the lexicon keeps every record alive
        # as long as the context
        self._deltas: dict[tuple[int, str], tuple[UseDelta, ...]] = {}
        self._resolved = lexicon._resolved
        self._genus_frames = {use: frames.get(target)
                              for use, target in self._resolved.items()}
        if getattr(frames, "rules", None) is rules:
            for (rec_id, word), (rec, base, deltas) in frames.uses.items():
                if self.genus_frame(rec.key, word) is base:
                    self._deltas[rec_id, word] = deltas

    def genus_target(self, key: SenseKey, genus_word: str) -> Optional[SenseKey]:
        return self._resolved.get((key, genus_word))

    def genus_frame(self, key: SenseKey, genus_word: str) -> Optional[Frame]:
        return self._genus_frames.get((key, genus_word))

    def use_deltas(self, rec: Sense, genus_word: str) -> tuple[UseDelta, ...]:
        """The deltas of ``rec``'s use of ``genus_word`` over its genus
        frame, which must exist; computed once per context."""
        key = (id(rec), genus_word)
        if key not in self._deltas:
            self._deltas[key] = use_deltas(self.genus_frame(rec.key, genus_word),
                                           parse_sense(rec), self.rules)
        return self._deltas[key]

    def noun_is_instrument(self, phrase_text: str) -> bool:
        """Is the head noun of this phrase defined as an instrument?"""
        head = head_noun(phrase_text)
        if not head:
            return False
        for sense in senses_of(self.lexicon, head):
            if sense.pos.is_verb:
                continue
            if "instrument" in sense.field_labels:
                return True
            if not sense.is_synonym_line:
                if head_noun(sense.raw_definition) == "instrument":
                    return True
        return False

    def frame_governs_instrument(self, frame: Frame, target: SenseKey) -> bool:
        """The genus frame declares an instrument pattern: an INSTRUMENT
        slot, or a literal with-an-instrument phrase in its definition."""
        if any(s.name == "INSTRUMENT" for s in walk_slots(frame.slots)):
            return True
        for rec in self.lexicon._by_key.get(target, ()):
            if rec.is_synonym_line:
                continue
            parsed = parse_sense(rec)
            for ph in parsed.differentiae:
                if (ph.kind == "prep-phrase" and ph.prep == "with"
                        and not ph.hedged and head_noun(ph.text) == "instrument"):
                    return True
        return False


# ---------------------------------------------------------------------------
# the four rules; each returns evidence or None

def rule_multi_concept(records: list[Sense],
                       ctx: ReductionContext) -> Optional[NonprimitiveEvidence]:
    """The definition is at least two verb concepts: an operator verb over
    an embedded concept, or negation of the base concept."""
    for rec in records:
        if rec.is_synonym_line:
            continue
        parsed = parse_sense(rec)
        if parsed.negated:
            base = parsed.genus[0] if parsed.genus else "?"
            return NonprimitiveEvidence(
                rec.key, "MULTI-CONCEPT",
                f"operator NOT over {base}; operator contribution owed")
        for word in ctx.genus[id(rec)]:
            if word in DEFAULT_OPERATORS:
                return NonprimitiveEvidence(
                    rec.key, "MULTI-CONCEPT",
                    f"operator {word} over embedded concept; "
                    f"operator contribution owed")
    return None


def rule_slot_fill(records: list[Sense],
                   ctx: ReductionContext) -> Optional[NonprimitiveEvidence]:
    """Differentiae give a value to an unbound argument of the genus frame,
    or a subject label fills SUBJ. Pure synonym lines are degenerate
    slot-fills: they bind nothing and add nothing of their own."""
    for rec in records:
        for word in ctx.genus[id(rec)]:
            base = ctx.genus_frame(rec.key, word)
            if base is None:
                continue
            if rec.is_synonym_line:
                return NonprimitiveEvidence(rec.key, "SLOT-FILL", "pure synonym")
            deltas = ctx.use_deltas(rec, word)
            details = [d.render() for d in deltas if d.kind == "FILL"]
            if rec.subject_restriction:
                details.insert(0, f"FILL SUBJ = {rec.subject_restriction}")
            if details:
                return NonprimitiveEvidence(rec.key, "SLOT-FILL",
                                            "; ".join(details))
    return None


def rule_word_government(records: list[Sense],
                         ctx: ReductionContext) -> Optional[NonprimitiveEvidence]:
    """A with-phrase whose object is itself defined as an instrument, under
    a genus whose frame declares an instrument-bearing pattern."""
    for rec in records:
        if rec.is_synonym_line:
            continue
        parsed = parse_sense(rec)
        with_phrases = [p for p in parsed.differentiae
                        if p.kind == "prep-phrase" and p.prep == "with"
                        and not p.hedged and p.text]
        if not with_phrases:
            continue
        for word in ctx.genus[id(rec)]:
            target = ctx.genus_target(rec.key, word)
            base = ctx.genus_frame(rec.key, word)
            if target is None or base is None:
                continue
            if not ctx.frame_governs_instrument(base, target):
                continue
            for ph in with_phrases:
                if ctx.noun_is_instrument(ph.text):
                    return NonprimitiveEvidence(
                        rec.key, "WORD-GOVERNMENT",
                        f"with-phrase object {head_noun(ph.text)!r} is defined "
                        f"as an instrument governed by {word}")
    return None


def rule_optional_component(records: list[Sense],
                            ctx: ReductionContext) -> Optional[NonprimitiveEvidence]:
    """The definition adds only optional matter over its genus: manner
    adverbs or other adverbial phrases, and no fills."""
    for rec in records:
        if rec.is_synonym_line:
            continue
        parsed = parse_sense(rec)
        if parsed.negated or not parsed.differentiae:
            continue
        if rec.subject_restriction:
            continue
        word = next((w for w in ctx.genus[id(rec)]
                     if ctx.genus_frame(rec.key, w) is not None), None)
        if word is None:
            continue
        if any(d.kind == "FILL" for d in ctx.use_deltas(rec, word)):
            continue
        if all(p.kind in ("adverb", "prep-phrase", "clause")
               for p in parsed.differentiae):
            manner = [p.text for p in parsed.differentiae if p.kind == "adverb"]
            others = [f"{p.prep or p.kind}: {p.text}"
                      for p in parsed.differentiae if p.kind != "adverb"]
            detail = "MANNER " + "; ".join(manner) if manner else "adverbial only"
            if others:
                detail += " | " + "; ".join(others)
            return NonprimitiveEvidence(rec.key, "OPTIONAL-COMPONENT", detail)
    return None


_RULES = {
    "MULTI-CONCEPT": rule_multi_concept,
    "SLOT-FILL": rule_slot_fill,
    "WORD-GOVERNMENT": rule_word_government,
    "OPTIONAL-COMPONENT": rule_optional_component,
}


def run_rule(rule: str, key: SenseKey, ctx: ReductionContext
             ) -> Optional[NonprimitiveEvidence]:
    """Re-run a single named rule on a single sense (evidence soundness)."""
    return _RULES[rule](ctx.lexicon._by_key.get(key, []), ctx)


def reduce_fixpoint(lexicon: Lexicon, graph: object,
                    frames: dict[SenseKey, Frame],
                    rules: RuleTable) -> ReductionReport:
    """Apply the rules in fixed order repeatedly until no sense changes
    status. Deterministic output.  ``graph`` is unused (``None`` will do):
    the rules read resolved genus targets from the lexicon's checked
    resolution map, the one the resolved definition graph carries."""
    ctx = ReductionContext(lexicon, frames, rules)
    verb_keys = [k for k in lexicon._sorted_keys if k.pos.is_verb]
    status: dict[SenseKey, Optional[NonprimitiveEvidence]] = {
        k: None for k in verb_keys}
    iterations = 0
    while True:
        iterations += 1
        changed = False
        for rule in RULE_ORDER:
            fn = _RULES[rule]
            for key in verb_keys:
                if status[key] is not None:
                    continue
                evidence = fn(lexicon._by_key[key], ctx)  # not copied
                if evidence is not None:
                    status[key] = evidence
                    changed = True
        if not changed:
            break
    set_aside = tuple(status[k] for k in verb_keys if status[k] is not None)
    remaining = tuple(k for k in verb_keys if status[k] is None)
    return ReductionReport(len(verb_keys), set_aside, remaining, iterations)
