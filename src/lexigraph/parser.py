"""Definition-driven disambiguation of running text: minimal chunking,
network traversal with context-probing answers, frame instantiation with
descriptors for unfilled slots, open-question reporting, and cross-sentence
slot carryover.  A sentence's roles and the facts its questions and
candidates read are computed once per sentence.

No inference model and no world-knowledge store: unresolved ambiguity is
surfaced, never guessed.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .frames import (
    Descriptor,
    Frame,
    Slot,
    UseDelta,
    _apply_use_to,
    _canonical,
    _entry_path,
    find_slot,
    frame_to_text,
    walk_slots,
)
from .lexicon import (
    DETERMINERS,
    PARTICLES,
    Lexicon,
    Phrase,
    ResolutionRecord,
    Sense,
    SenseKey,
    _label_ancestors,
    head_noun,
    lower_alternatives,
    parse_sense,
    split_alternatives,
)
from .prep_rules import RuleTable

if TYPE_CHECKING:
    from .ssn import SSN, Question

PRONOUNS = {"it", "they", "he", "she", "we", "you", "i", "them"}
_COORDINATORS = {"or", "and"}


class ChunkError(ValueError):
    pass


class NoNetworkError(KeyError):
    pass


class Chunk(NamedTuple):
    kind: str                     # verb | noun-phrase | prep-phrase | adverb | particle
    text: str
    prep: Optional[str] = None
    lemma: Optional[str] = None   # verb chunks: lexicon headword
    # read as a definition's differentia (``Phrase``): a sentence hedges
    # nothing
    hedged = False

    @property
    def head(self) -> str:
        return head_noun(self.text)


def _strip_token(token: str) -> str:
    return token.strip(".,!?;:\"'").lower()


def _inflection_candidates(word: str) -> list[str]:
    """The lemmas an inflected ``word`` may have, in the order they are
    tried."""
    out = []
    if word.endswith("ing") and len(word) > 4:
        out += [word[:-3], word[:-3] + "e"]
    if word.endswith("ied") and len(word) > 4:
        out.append(word[:-3] + "y")
    if word.endswith("ed") and len(word) > 3:
        out += [word[:-2], word[:-1]]
        if len(word) > 4 and word[-3] == word[-4]:
            out.append(word[:-3])
    elif word.endswith("d") and len(word) > 2:
        out.append(word[:-1])
    if word.endswith("es") and len(word) > 3:
        out += [word[:-2], word[:-1]]
    elif word.endswith("s") and len(word) > 2:
        out.append(word[:-1])
    return out


def _verb_lemma(word: str, verb_words: frozenset[str]) -> Optional[str]:
    if word in verb_words:
        return word
    for cand in _inflection_candidates(word):
        if cand in verb_words:
            return cand
    return None


def chunk_sentence(text: str, lexicon: Lexicon) -> list[Chunk]:
    """Deterministic chunking: POS by lexicon lookup with verb preference
    for the single main-verb position, greedy prep-phrase grouping.  An
    "or" or "and" right before a preposition or at the end of the sentence
    ends a prep phrase and is dropped: "into curd or into cheese" is two
    phrases, and "into curd or" is "into curd"."""
    words = [w for w in map(_strip_token, text.split()) if w]
    if not words:
        raise ChunkError("empty input")

    verb_words, prep_words = lexicon.verb_headwords, lexicon.chunking_preps

    verb_idx = lemma = None
    for i, w in enumerate(words):
        if w in DETERMINERS or w in PRONOUNS or w in prep_words:
            continue
        lemma = _verb_lemma(w, verb_words)
        if lemma is not None:
            verb_idx = i
            break

    chunks: list[Chunk] = []

    def flush_np(buf: list[str]):
        if buf:
            chunks.append(Chunk("noun-phrase", " ".join(buf)))
            buf.clear()

    buf: list[str] = []
    i = 0
    n = len(words)
    while i < n:
        w = words[i]
        if verb_idx is not None and i == verb_idx:
            flush_np(buf)
            chunks.append(Chunk("verb", w, None, lemma))
            i += 1
            continue
        if w in prep_words and (verb_idx is None or i > verb_idx):
            flush_np(buf)
            obj: list[str] = []
            j = i + 1
            while j < n and words[j] not in prep_words:
                if words[j] in _COORDINATORS and (
                        j + 1 == n or words[j + 1] in prep_words):
                    j += 1
                    break
                obj.append(words[j])
                j += 1
            if obj:
                chunks.append(Chunk("prep-phrase", " ".join(obj), w))
            else:
                chunks.append(Chunk("particle", w, w))
            i = j
            continue
        if w in PARTICLES and verb_idx is not None and i > verb_idx:
            flush_np(buf)
            chunks.append(Chunk("particle", w, w))
            i += 1
            continue
        if w.endswith("ly") and len(w) > 3:
            flush_np(buf)
            chunks.append(Chunk("adverb", w))
            i += 1
            continue
        buf.append(w)
        i += 1
    flush_np(buf)
    return chunks


# ---------------------------------------------------------------------------
# sentence context and the probing oracle

class SentenceContext:
    """The chunks of one sentence and its roles, found in one pass: the
    (first) verb, the subject (the first noun phrase before the verb), the
    object (the first noun phrase after it), the prep phrases, the
    prepositions and particles present, and the differentiae (the prep
    phrase and adverb chunks), so that a sentence applies to a frame as a
    use does (``frames._apply_use_to``)."""

    __slots__ = ("chunks", "verb", "subject", "object_np", "prep_phrases",
                 "particles", "differentiae")

    def __init__(self, chunks: list[Chunk]):
        self.chunks = chunks
        self.verb: Optional[Chunk] = None
        self.subject: Optional[Chunk] = None
        self.object_np: Optional[Chunk] = None
        self.prep_phrases: list[Chunk] = []
        self.particles: set[str] = set()
        self.differentiae: list[Chunk] = []
        for c in chunks:
            kind = c.kind
            if kind == "verb":
                self.verb = self.verb or c
            elif kind == "noun-phrase":
                if self.verb is None:
                    self.subject = self.subject or c
                elif self.object_np is None:
                    self.object_np = c
            elif kind == "prep-phrase":
                self.prep_phrases.append(c)
                self.particles.add(c.prep)
                self.differentiae.append(c)
            elif kind == "particle":
                self.particles.add(c.prep)
            elif kind == "adverb":
                self.differentiae.append(c)

    def pp_object(self, preps: Sequence[str]) -> Optional[Chunk]:
        for c in self.prep_phrases:
            if c.prep in preps:
                return c
        return None


def essential_change(subject_text: Optional[str], object_text: str) -> bool:
    """Crude but deterministic: the change is accidental when the object
    head is listed among the subject's stated kinds, else essential."""
    obj_head = head_noun(object_text).lower()
    if not obj_head:
        return True
    kinds: set[str] = set()
    if subject_text:
        for alt in split_alternatives(subject_text):
            kinds.add(alt.lower())
            kinds.update(w.lower() for w in alt.split())
    return obj_head not in kinds


class ContextOracle:
    """Answers network questions by probing the sentence context, and keeps
    the facts of the sentence that several questions and candidates read,
    each computed once: the subject's text, its lowercased head and text
    (on first use) and the lowercased alternatives of the first in-phrase.
    The context holds the particles present."""

    __slots__ = ("ctx", "rules", "subject_text", "in_given", "_subject_names")

    def __init__(self, ctx: SentenceContext, rules: RuleTable,
                 subject_override: Optional[str] = None):
        self.ctx = ctx
        self.rules = rules
        self.subject_text = subject_override or (
            ctx.subject.text if ctx.subject else None)
        in_pp = ctx.pp_object(("in",))
        self.in_given = (None if in_pp is None
                         else lower_alternatives((in_pp.text,)))
        self._subject_names: Optional[tuple[str, str]] = None

    def subject_names(self) -> tuple[str, str]:
        """The subject's lowercased head and lowercased text; call only
        when there is a subject."""
        if self._subject_names is None:
            self._subject_names = (head_noun(self.subject_text).lower(),
                                   self.subject_text.lower())
        return self._subject_names

    def __call__(self, q: Question) -> str:
        """The answer the sentence bears out: for a FRAME-DIFF question,
        the answer whose fact (``Question._probe``) it bears out, the
        probes most asked first; a probe whose sentence fact is absent
        answers at once."""
        kind = q.kind
        if kind == "FRAME-DIFF":
            probe, other, facts = q._probe
            ctx = self.ctx
            if probe == "predicate":
                pps = ctx.prep_phrases
                if not pps:
                    return "unknown"
                slot_action = self.rules.slot_action
                return next((a for a, family in facts if any(
                    slot_action(pp.prep, family) for pp in pps)), "unknown")
            if probe == "bind":  # the FROM-STATE answer, if any, is the fact
                pp = ctx.pp_object(("into", "to"))
                if pp is not None and pp.text:
                    if not essential_change(self.subject_text, pp.text):
                        return other
                    return "FROM-STATE" if facts else "unknown"
                return other if {"from", "to"} <= ctx.particles else "unknown"
            if probe == "subject":
                if self.subject_text is None:
                    return "unknown"
                names = self.subject_names()
                return next((a for a, value in facts if value in names), other)
            if probe == "respect":
                if self.in_given is None:
                    return "unknown"
                return next((a for a, alts in facts
                             if not self.in_given.isdisjoint(alts)), other)
            if probe == "conditions":
                return self._conditions_answer(facts)
            if probe == "filler" and ctx.prep_phrases:
                texts = [pp.text.lower() for pp in ctx.prep_phrases]
                return next((a for a, value in facts if value in texts),
                            "unknown")
            return "unknown"
        if kind == "USAGE":
            return ("absent" if self.ctx.particles.isdisjoint(q.payload)
                    else "present")
        if kind == "POS":
            return "v" if self.ctx.verb is not None else "unknown"
        if kind == "TRANSITIVITY":
            return "vt" if self.ctx.object_np is not None else "vi"
        if kind in ("OBJ-IS", "OBJ-SAT"):
            obj = self.ctx.object_np
            if obj is None:
                return "no"
            wanted = q.payload[0]
            if kind == "OBJ-IS":
                return "yes" if obj.head == wanted else "no"
            return ("yes" if set(split_alternatives(obj.text))
                    & set(split_alternatives(wanted)) else "no")
        if kind == "ADJ-COMPLEMENT":
            return "absent"
        return "unknown"

    def _conditions_answer(self, facts: tuple) -> str:
        present = self.ctx.particles
        if not present:  # no USED-WITH condition is met
            return "unknown"
        scored: list[tuple[int, str]] = []
        base: Optional[tuple[int, str]] = None
        any_relevant = False
        for answer, (count, used_with) in facts:
            if not used_with:
                if base is None or count < base[0]:
                    base = (count, answer)
                continue
            for particles in used_with:
                hit = [p for p in particles if p in present]
                if not hit:
                    break
                if set(hit) & {"into", "to"}:
                    any_relevant = True
                    pp = self.ctx.pp_object(hit)
                    if pp is not None and pp.text and not essential_change(
                            self.subject_text, pp.text):
                        break
            else:
                scored.append((len(used_with), answer))
        if scored:
            return max(scored)[1]
        if any_relevant and base is not None:
            return base[1]
        return "unknown"


# ---------------------------------------------------------------------------
# disambiguation

class DisambiguationResult(NamedTuple):
    word: str
    lemma: str
    candidates: tuple[SenseKey, ...]
    frame: Frame
    open_questions: tuple[str, ...]
    deltas: tuple[UseDelta, ...] = ()

    def to_text(self) -> str:
        lines = [f"word: {self.word} (lemma {self.lemma})",
                 "candidates: " + ", ".join(k.render() for k in self.candidates)]
        lines.append("frame:")
        lines.extend("  " + ln for ln in frame_to_text(self.frame).splitlines())
        if self.open_questions:
            lines.append("open questions:")
            lines.extend(f"  - {qid}" for qid in self.open_questions)
        return "\n".join(lines) + "\n"


class VarAllocator:
    """Fresh descriptor variables across a discourse."""

    def __init__(self):
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        return f"v{self.count}"


def _instantiate(frame: Frame, oracle: ContextOracle,
                 allocator: VarAllocator) -> tuple[Frame, tuple[UseDelta, ...]]:
    """The frame with the sentence applied as a use, the subject in the
    SUBJ slot (``find_slot``'s) when that is empty, and a fresh descriptor
    in every other empty mandatory slot, with the deltas of the first two.
    What to fill is the fill plan (``fill_plan``) of the tree the use
    leaves.  The frame keeps, in its ``__dict__``, one plan per shape of
    tree: that of its own slots under ``()``, and that of an edited tree
    under the use's ordered (delta kind, slot path) pairs, never its text,
    as a FILL, RESTRICT or ADD-SLOT edit leaves the same names, binds,
    cases and empty slots whatever its text.  Only the filled slots and
    those above them are rebuilt, and the frame is built once."""
    frame = _canonical(frame)
    slots, deltas, _ = _apply_use_to(frame.slots, frame.predicate,
                                     oracle.ctx, oracle.rules)
    shape = () if slots is frame.slots else tuple(d[:2] for d in deltas)
    plans = frame.__dict__.get("_fill_plans")
    if plans is None:
        plans = frame.__dict__["_fill_plans"] = {}
    plan = plans.get(shape)
    if plan is None:
        plan = plans[shape] = fill_plan(slots)
    path, steps = plan
    subject = oracle.subject_text
    if subject and path:
        deltas += (UseDelta("FILL", path, subject),)
    return Frame(frame.predicate, frame.pos, frame.conditions,
                 _filled(slots, steps, allocator, subject),
                 frame.provisional, frame.sense,
                 frame.provenance + ("applied use",)), deltas


# the slots a parse fills when empty, besides those bound to a role or
# with a case
MANDATORY_SLOTS = {"SUBJ", "FROM-STATE", "TO-STATE"}


def fill_plan(slots: tuple[Slot, ...]) -> tuple:
    """What a parse fills in ``slots``: the path of the SUBJ slot
    ``find_slot`` finds, if that slot is empty (else None), and the steps
    to every empty mandatory slot.  The steps of a level are (index, 2 for
    that SUBJ slot, else 1 for an empty mandatory slot, else 0, the steps
    of its children), in name order, for the slots that are filled or sit
    above one that is.  A plan holds no slot."""
    entry = find_slot(slots, "SUBJ")
    path = _entry_path(entry) if entry and entry[0].filler is None else None
    return path, _fill_steps(slots, path or ())


def _fill_steps(slots: tuple[Slot, ...], path: tuple[str, ...]) -> tuple:
    """The steps of ``fill_plan`` for ``slots``, the SUBJ slot to fill at
    ``path`` below them (none when it is empty)."""
    steps = []
    # (slot, index) pairs in name order: the names of a level differ
    for slot, i in sorted(zip(slots, range(len(slots)))):
        name, case, bind, filler, _, kids = slot
        on_path = path and name == path[0]
        if kids:
            kids = _fill_steps(kids, path[1:] if on_path else ())
        if on_path and len(path) == 1:
            steps.append((i, 2, kids))
        elif filler is None and (name in MANDATORY_SLOTS or bind is not None
                                 or case):
            steps.append((i, 1, kids))
        elif kids:
            steps.append((i, 0, kids))
    return tuple(steps)


def _filled(slots: tuple[Slot, ...], steps: tuple, allocator: VarAllocator,
            subject: Optional[str]) -> tuple[Slot, ...]:
    """``slots`` with a fill plan's ``steps`` taken: the subject, when
    there is one, in the slot that is to get it, and a fresh descriptor in
    every other slot that gets something, allocated in the steps' order."""
    out = list(slots)
    for i, gets, kids in steps:
        name, case, bind, filler, restrictions, children = slots[i]
        if gets == 2 and subject:
            filler = subject
        elif gets:
            filler = Descriptor(allocator.fresh(), restrictions)
        if kids:
            children = _filled(children, kids, allocator, subject)
        out[i] = Slot(name, case, bind, filler, restrictions, children)
    return tuple(out)


def _match_facts(frame: Frame) -> tuple:
    """What ``_match_score`` reads, kept in the frame's ``__dict__``: the
    lowercased string filler of each SUBJ slot; per RESPECT slot with
    restrictions, the lowercased alternatives of the RESPECT restrictions
    at and below it; the particles of each USED-WITH condition."""
    try:
        return frame.__dict__["_match_facts"]
    except KeyError:  # the first read of this frame
        pass
    slots = list(walk_slots(frame.slots))
    facts = frame.__dict__["_match_facts"] = (
        tuple(s.filler.lower() for s in slots
              if s.name == "SUBJ" and isinstance(s.filler, str)),
        tuple(lower_alternatives(r for t in walk_slots((s,))
                                 if t.name == "RESPECT"
                                 for r in t.restrictions)
              for s in slots if s.name == "RESPECT" and s.restrictions),
        tuple(frozenset(c[1]) for c in frame.conditions
              if c[0] == "USED-WITH"))
    return facts


def _match_score(frame: Frame, oracle: ContextOracle) -> int:
    """Informative-match refinement: count context-confirmed constraints,
    read from the frame's match facts; a frame without any scores 0, and
    no fact of the sentence is read for it."""
    subjects, respects, particle_sets = _match_facts(frame)
    score = 0
    if subjects and oracle.subject_text:
        names = oracle.subject_names()
        if names[0]:
            score = sum(f in names for f in subjects)
    if respects and oracle.in_given is not None:
        score += sum(not oracle.in_given.isdisjoint(r) for r in respects)
    if particle_sets:
        present = oracle.ctx.particles
        score += sum(not present.isdisjoint(p) for p in particle_sets)
    return score


def disambiguate(word: str, chunks: list[Chunk], ssn: SSN,
                 frames: dict[SenseKey, Frame], rules: RuleTable,
                 lexicon: Lexicon,
                 allocator: Optional[VarAllocator] = None,
                 subject_override: Optional[str] = None) -> DisambiguationResult:
    """Traverse the word's network with context-probing answers, refine by
    informative match, and instantiate the representative frame.  The
    sentence's roles and facts are found once, in the oracle, and read by
    every question and candidate.

    ``lexicon`` is unused: no answer reads the lexicon.  It keeps its
    position because callers pass the arguments after it positionally."""
    oracle = ContextOracle(SentenceContext(chunks), rules, subject_override)
    result = ssn.traverse(oracle)
    candidates = list(result.senses)
    if len(candidates) > 1:
        scores = {k: _match_score(frames[k], oracle) for k in candidates}
        best = max(scores.values())
        candidates = [k for k in candidates if scores[k] == best]
    frame, deltas = _instantiate(frames[candidates[0]], oracle,
                                 allocator or VarAllocator())
    return DisambiguationResult(word, ssn.headword, tuple(candidates), frame,
                                result.open_questions, deltas)


# ---------------------------------------------------------------------------
# resolving genus uses inside definitions

class AutoResolution(NamedTuple):
    using: SenseKey
    genus_word: str
    unique: Optional[SenseKey]
    candidates: tuple[SenseKey, ...]
    rationale: str

    @property
    def record(self) -> Optional[ResolutionRecord]:
        if self.unique is None:
            return None
        return ResolutionRecord(self.using, self.genus_word, self.unique)

    def render(self) -> str:
        """A unique proposal as its LEXF R line, another as a comment line
        with its rationale and candidates."""
        if self.unique is not None:
            return (f"R|{self.using.render()}|{self.genus_word}|"
                    f"{self.unique.render()}")
        cands = ",".join(k.render() for k in self.candidates)
        return f"# {self.using.render()}: {self.rationale}: {cands}"


class _GenusTable:
    """What disambiguation needs to know about one genus verb, computed
    once however many definitions use it: its verb sense keys, the family
    carrying a respect group, the family whose subject is bound as the
    from-state and the keys of both families, each in canonical order; the
    head of the bind family, the particles each of its senses requires, and
    the respect alternatives stated in each respect-family frame."""

    def __init__(self, word: str, lexicon: Lexicon,
                 frames: dict[SenseKey, Frame]):
        self.keys = tuple(k for k in lexicon._by_headword.get(word, ())
                          if k.pos.is_verb)
        self.respect_family: list[SenseKey] = []
        self.bind_family: list[SenseKey] = []
        self.respect_sets: dict[SenseKey, frozenset[str]] = {}
        self.required: dict[SenseKey, set[str]] = {}
        for k in self.keys:
            frame = frames.get(k)
            if frame is None:
                continue
            if any(s.name == "SUBJ" and s.bind == "FROM-STATE"
                   for s in frame.slots):
                self.bind_family.append(k)
                self.required[k] = {p for rec in lexicon._by_key[k]
                                    for p in rec.usage_particles}
            elif any(s.name == "RESPECT" for s in walk_slots(frame.slots)):
                self.respect_family.append(k)
                self.respect_sets[k] = frozenset().union(*_match_facts(frame)[1])
        self.both_families = [k for k in self.keys
                              if k in self.required or k in self.respect_sets]
        # the first of the fewest label ancestors
        self.family_head = min(self.bind_family, default=None,
                               key=lambda k: len(_label_ancestors(k.label)))


def disambiguate_in_definition(records: list[Sense], lexicon: Lexicon,
                               frames: dict[SenseKey, Frame],
                               rules: RuleTable) -> AutoResolution:
    """Propose the sense of the genus verb used by a definition (records of
    ``lexicon``): an adjacent from...to pair forces the respect family; an
    into/to object presumes the subject-transforming family subject to the
    essential-change check; an in-phrase is compared against the subsense
    respect sets."""
    return _propose(records, lexicon, frames, {})


def _propose(records: list[Sense], lexicon: Lexicon,
             frames: dict[SenseKey, Frame],
             tables: dict[str, _GenusTable]) -> AutoResolution:
    """``disambiguate_in_definition``, reading and filling ``tables``, the
    genus tables of one run."""
    using = records[0].key
    genus_word = None
    for rec in records:
        words = lexicon._genus[id(rec)]
        if words:
            genus_word = words[0]
            break
    if genus_word is None:
        raise ValueError(f"{using.render()} has no genus")
    table = tables.get(genus_word)
    if table is None:
        table = tables[genus_word] = _GenusTable(genus_word, lexicon, frames)
    fam1, fam2 = table.respect_family, table.bind_family

    phrases: Sequence[Phrase] = ()
    subject = None
    negated = False
    synonym_note_particles: tuple[str, ...] = ()
    for rec in records:
        if rec.is_synonym_line:
            synonym_note_particles = rec.usage_particles
            continue
        parsed = parse_sense(rec)
        if not phrases:
            phrases = parsed.differentiae
            negated = parsed.negated
            subject = rec.subject_restriction

    pps = [p for p in phrases if p.kind == "prep-phrase" and not p.hedged]
    state_pp = next((p for p in pps if p.prep in ("into", "to")), None)
    in_pp = next((p for p in pps if p.prep == "in" and p.text), None)
    unique = None
    if any(a.prep == "from" and b.prep == "to" for a, b in zip(pps, pps[1:])):
        candidates = fam1
        why = ("from...to pair: the respect family is intended; "
               "the particular respect needs further context")
    elif state_pp is not None and not state_pp.text:
        particles = {p.prep for p in pps}
        candidates = [k for k in fam2 if not table.required[k]
                      or table.required[k] & particles] or fam2
        why = ("state preposition without an object: subject-transforming "
               "family presumed, object awaited from context")
    elif state_pp is not None and len(split_alternatives(state_pp.text)) > 1:
        candidates = table.both_families
        why = "disjunctive state object: both families apply"
    elif (state_pp is not None and table.family_head is not None
          and essential_change(subject, state_pp.text)):
        unique = table.family_head
        candidates = [unique]
        why = ("essential change into a new kind: "
               "subject-transforming family head")
    elif state_pp is not None:
        candidates = fam1
        why = ("state object within the subject's stated kinds: "
               "accidental change, respect family")
    elif in_pp is not None:
        given = lower_alternatives((in_pp.text,))
        candidates = [k for k in fam1 if given & table.respect_sets[k]]
        if len(candidates) == 1:
            unique = candidates[0]
            why = "respect matches exactly one subsense restriction set"
        elif candidates:
            why = "respect matches several subsense restriction sets"
        else:
            candidates = fam1
            why = ("respect stated but matches no subsense set: "
                   "respect family, subsense open")
    elif set(synonym_note_particles) & {"into", "to"}:
        candidates = fam2
        why = ("bare cross-reference noted with a state preposition: "
               "subject-transforming family presumed")
    else:
        candidates = table.keys
        why = ("negated use: any sense may be the negated base" if negated
               else "no discriminating context: all senses apply")
    # every candidate list above keeps the canonical order of table.keys
    return AutoResolution(using, genus_word, unique, tuple(candidates), why)


def autoresolve_all(lexicon: Lexicon, frames: dict[SenseKey, Frame],
                    rules: RuleTable,
                    genus_word: str = "change") -> list[AutoResolution]:
    """Proposals for every sense whose main verb is the given word."""
    tables: dict[str, _GenusTable] = {}
    genus, by_key = lexicon._genus, lexicon._by_key
    out = []
    for key in lexicon._sorted_keys:
        if not key.pos.is_verb or key.headword == genus_word:
            continue
        records = by_key[key]
        if any(genus_word in genus[id(rec)] for rec in records):
            out.append(_propose(records, lexicon, frames, tables))
    return out


# ---------------------------------------------------------------------------
# multisentence parsing

class Entity:
    """A discourse referent, the chunks gathered for it so far and the
    index of its pending result."""

    __slots__ = ("var", "head", "text", "sentence", "chunks", "result_index")

    def __init__(self, var: str, head: str, text: str, sentence: int,
                 chunks: list[Chunk]):
        self.var, self.head, self.text = var, head, text
        self.sentence, self.chunks = sentence, chunks
        self.result_index: Optional[int] = None


class DiscourseState:
    """The entities of a discourse and the (variable, value) bindings made
    so far."""

    __slots__ = ("entities", "bindings")

    def __init__(self):
        self.entities: list[Entity] = []
        self.bindings: list[tuple[str, str]] = []

    def find_entity(self, subject: Optional[Chunk]) -> Optional[Entity]:
        if subject is None:
            return None
        head = subject.head
        if head in PRONOUNS or subject.text in PRONOUNS:
            return self.entities[-1] if self.entities else None
        for entity in reversed(self.entities):
            if entity.head == head:
                return entity
        return None


def _fills_by_role(frame: Frame, kind: type) -> dict:
    """The first filler of type ``kind`` of each role: a descriptor or a
    literal.  The role is the slot's bound alias when it has one, so
    bindings survive a change of frame shape."""
    out = {}
    for slot in walk_slots(frame.slots):
        if isinstance(slot.filler, kind):
            out.setdefault(slot.bind or slot.name, slot.filler)
    return out


def parse_discourse(sentences: Sequence[str], lexicon: Lexicon,
                    ssns: dict[str, SSN], frames: dict[SenseKey, Frame],
                    rules: RuleTable
                    ) -> tuple[list[DisambiguationResult], DiscourseState]:
    """Sentence boundaries do not finalize frames: when a later sentence's
    subject corefers (exact head match, or it/they to the most recent
    entity), its phrase evidence merges into the pending result, binding
    descriptors and retiring open questions."""
    if not sentences:
        raise ChunkError("no sentences")
    state = DiscourseState()
    allocator = VarAllocator()
    results: list[DisambiguationResult] = []

    for idx, sentence in enumerate(sentences):
        chunks = chunk_sentence(sentence, lexicon)
        ctx = SentenceContext(chunks)
        verb = ctx.verb
        if verb is None or verb.lemma not in ssns:
            raise NoNetworkError(f"no network for sentence {idx + 1}")
        subject = ctx.subject
        entity = state.find_entity(subject)
        subject_override = None
        if entity is not None:
            subject_override = entity.text
            merged = entity.chunks + [c for c in chunks
                                      if c.kind != "noun-phrase"
                                      and c not in entity.chunks]
            entity.chunks = merged
            # re-run the pending result with the merged evidence
            if entity.result_index is not None:
                old = results[entity.result_index]
                old_desc = _fills_by_role(old.frame, Descriptor)
                prior_ssn = ssns[old.lemma]
                renewed = disambiguate(old.word, merged, prior_ssn, frames,
                                       rules, lexicon, allocator,
                                       subject_override=entity.text)
                results[entity.result_index] = renewed
                new_fills = _fills_by_role(renewed.frame, str)
                for role, descriptor in old_desc.items():
                    if role in new_fills:
                        state.bindings.append((descriptor.var,
                                               new_fills[role]))
        else:
            if subject is not None:
                entity = Entity(allocator.fresh(), subject.head, subject.text,
                                idx, list(chunks))
                state.entities.append(entity)

        result = disambiguate(verb.text, chunks, ssns[verb.lemma], frames,
                              rules, lexicon, allocator,
                              subject_override=subject_override)
        results.append(result)
        if entity is not None and entity.result_index is None:
            entity.result_index = len(results) - 1

    return results, state


def results_to_tsv(results: Iterable[DisambiguationResult]) -> str:
    rows = ["word\tsenses\tfills"]
    for r in results:
        fills = "; ".join(d.render() for d in r.deltas)
        senses = ",".join(k.render() for k in r.candidates)
        rows.append(f"{r.word}\t{senses}\t{fills}")
    return "\n".join(rows) + "\n"
