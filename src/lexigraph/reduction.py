"""Non-primitive reduction: four rules applied to a fixpoint, with
re-verifiable evidence for every sense set aside.

Rule order is fixed for determinism: MULTI-CONCEPT, SLOT-FILL,
WORD-GOVERNMENT, OPTIONAL-COMPONENT. Rules are pure per sense; only the
fixpoint loop sequences them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .defgraph import DefinitionGraph
from .frames import Frame, UseDelta, use_deltas, walk_slots
from .lexicon import (
    Lexicon,
    Sense,
    SenseKey,
    genus_words,
    head_noun,
    parse_sense,
    senses_of,
)
from .prep_rules import RuleTable

DEFAULT_OPERATORS = ("attempt", "begin", "cause", "cease", "refuse", "serve")

RULE_ORDER = ("MULTI-CONCEPT", "SLOT-FILL", "WORD-GOVERNMENT",
              "OPTIONAL-COMPONENT")


@dataclass(frozen=True)
class NonprimitiveEvidence:
    sense: SenseKey
    rule: str
    detail: str

    def render(self) -> str:
        return f"{self.sense.render()}\t{self.rule}\t{self.detail}"


@dataclass(frozen=True)
class ReductionReport:
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
    """Shared lookups for the rules: resolved genus targets, frames, and
    the prep rule table."""

    def __init__(self, lexicon: Lexicon, graph: DefinitionGraph,
                 frames: dict[SenseKey, Frame], rules: RuleTable,
                 operators: Iterable[str] = DEFAULT_OPERATORS):
        self.lexicon = lexicon
        self.graph = graph
        self.frames = frames
        self.rules = rules
        self.operators = frozenset(operators)
        # keyed by the record's id: the lexicon keeps every record alive
        # as long as the context
        self._deltas: dict[tuple[int, str], tuple[UseDelta, ...]] = {}
        self._resolved: dict[tuple[SenseKey, str], SenseKey] = {}
        for arc in graph.arcs:
            if arc.resolved and not arc.source.is_external:
                target = arc.target()
                if not target.is_external:
                    self._resolved[(arc.source.key, arc.genus_word)] = target.key

    def genus_target(self, key: SenseKey, genus_word: str) -> Optional[SenseKey]:
        return self._resolved.get((key, genus_word))

    def genus_frame(self, key: SenseKey, genus_word: str) -> Optional[Frame]:
        target = self.genus_target(key, genus_word)
        if target is None:
            return None
        return self.frames.get(target)

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
        for rec in self.lexicon.records_for(target):
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
        for word in genus_words(rec, ctx.lexicon):
            if word in ctx.operators:
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
        for word in genus_words(rec, ctx.lexicon):
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
        for word in genus_words(rec, ctx.lexicon):
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
        base = None
        for word in genus_words(rec, ctx.lexicon):
            base = ctx.genus_frame(rec.key, word)
            if base is not None:
                break
        if base is None:
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
    return _RULES[rule](ctx.lexicon.records_for(key), ctx)


def reduce_fixpoint(lexicon: Lexicon, graph: DefinitionGraph,
                    frames: dict[SenseKey, Frame], rules: RuleTable,
                    operators: Iterable[str] = DEFAULT_OPERATORS) -> ReductionReport:
    """Apply the rules in fixed order repeatedly until no sense changes
    status. Deterministic output."""
    ctx = ReductionContext(lexicon, graph, frames, rules, operators)
    verb_keys = [k for k in lexicon.sense_keys() if k.pos.is_verb]
    verb_keys.sort(key=SenseKey.sort_key)
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
                evidence = fn(lexicon.records_for(key), ctx)
                if evidence is not None:
                    status[key] = evidence
                    changed = True
        if not changed:
            break
    set_aside = tuple(status[k] for k in verb_keys if status[k] is not None)
    remaining = tuple(k for k in verb_keys if status[k] is None)
    return ReductionReport(len(verb_keys), set_aside, remaining, iterations)
