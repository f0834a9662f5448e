"""Definition-driven disambiguation of running text: minimal chunking,
network traversal with context-probing answers, frame instantiation with
descriptors for unfilled slots, open-question reporting, and cross-sentence
slot carryover.  A sentence's roles and the facts its questions and
candidates read are computed once per sentence.

No inference model and no world-knowledge store: unresolved ambiguity is
surfaced, never guessed.
"""
from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from .frames import (
    Descriptor,
    Frame,
    Slot,
    UseDelta,
    apply_use,
    find_slot,
    frame_to_text,
    update_slot,
    walk_slots,
)
from .lexicon import (
    CHUNKING_PREPS,
    DETERMINERS,
    Lexicon,
    ParsedDefinition,
    Phrase,
    ResolutionRecord,
    Sense,
    SenseKey,
    _label_ancestors,
    genus_words,
    head_noun,
    lower_alternatives,
    parse_sense,
    split_alternatives,
    usage_particles,
)
from .prep_rules import RuleTable

if TYPE_CHECKING:
    from .ssn import SSN, Question

PRONOUNS = {"it", "they", "he", "she", "we", "you", "i", "them"}
_PARTICLE_WORDS = {"up", "out", "off", "down", "away", "round"}
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

    @property
    def head(self) -> str:
        return head_noun(self.text)


def _strip_token(token: str) -> str:
    return token.strip(".,!?;:\"'").lower()


def _inflection_candidates(word: str) -> list[str]:
    out = [word]
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
    for cand in _inflection_candidates(word):
        if cand in verb_words:
            return cand
    return None


def chunk_sentence(tokens: Union[str, Sequence[str]],
                   lexicon: Lexicon) -> list[Chunk]:
    """Deterministic chunking: POS by lexicon lookup with verb preference
    for the single main-verb position, greedy prep-phrase grouping.  An
    "or" or "and" right before a preposition ends a prep phrase and is
    dropped: "into curd or into cheese" is two phrases."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    if not tokens:
        raise ChunkError("empty input")
    words = [w for w in map(_strip_token, tokens) if w]
    if not words:
        raise ChunkError("empty input")

    verb_words = lexicon.verb_headwords
    prep_words = lexicon.prep_headwords | CHUNKING_PREPS

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
                if (words[j] in _COORDINATORS and j + 1 < n
                        and words[j + 1] in prep_words):
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
        if w in _PARTICLE_WORDS and verb_idx is not None and i > verb_idx:
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
    object (the first noun phrase after it), the prep phrases, and the
    prepositions and particles present."""

    __slots__ = ("chunks", "verb", "subject", "object_np", "prep_phrases",
                 "particles")

    def __init__(self, chunks: list[Chunk]):
        self.chunks = chunks
        self.verb: Optional[Chunk] = None
        self.subject: Optional[Chunk] = None
        self.object_np: Optional[Chunk] = None
        self.prep_phrases: list[Chunk] = []
        self.particles: set[str] = set()
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
            elif kind == "particle":
                self.particles.add(c.prep)

    def pp_object(self, preps: Sequence[str]) -> Optional[Chunk]:
        for c in self.prep_phrases:
            if c.prep in preps:
                return c
        return None

    def to_parsed_definition(self) -> ParsedDefinition:
        """The sentence's phrase matter as differentiae, for slot filling."""
        phrases = []
        for c in self.chunks:
            if c.kind == "prep-phrase":
                phrases.append(Phrase("prep-phrase", c.text, c.prep))
            elif c.kind == "adverb":
                phrases.append(Phrase("adverb", c.text))
        verb = self.verb
        return ParsedDefinition(
            genus=(verb.lemma,) if verb and verb.lemma else (),
            object_np=self.object_np.text if self.object_np else None,
            differentiae=tuple(phrases))


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
        if q.kind == "POS":
            return "v" if self.ctx.verb is not None else "unknown"
        if q.kind == "TRANSITIVITY":
            return "vt" if self.ctx.object_np is not None else "vi"
        if q.kind in ("OBJ-IS", "OBJ-SAT"):
            obj = self.ctx.object_np
            if obj is None:
                return "no"
            wanted = q.payload[0]
            if q.kind == "OBJ-IS":
                return "yes" if obj.head == wanted else "no"
            return ("yes" if set(split_alternatives(obj.text))
                    & set(split_alternatives(wanted)) else "no")
        if q.kind == "ADJ-COMPLEMENT":
            return "absent"
        if q.kind == "USAGE":
            return ("absent" if self.ctx.particles.isdisjoint(q.payload)
                    else "present")
        if q.kind == "FRAME-DIFF":
            return self._frame_diff_answer(q)
        return "unknown"

    # -- frame-difference probes ------------------------------------------

    def _frame_diff_answer(self, q: Question) -> str:
        """The answer whose fact (``Question._probe``) the sentence bears out."""
        probe, other, facts = q._probe
        if probe == "predicate":
            return next((a for a, family in facts if any(
                self.rules.slot_action(pp.prep, family)
                for pp in self.ctx.prep_phrases)), "unknown")
        if probe == "conditions":
            return self._conditions_answer(facts)
        if probe == "bind":  # the FROM-STATE answer, if any, is the fact
            pp = self.ctx.pp_object(("into", "to"))
            if pp is not None and pp.text:
                if not essential_change(self.subject_text, pp.text):
                    return other
                return "FROM-STATE" if facts else "unknown"
            return other if {"from", "to"} <= self.ctx.particles else "unknown"
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
        if probe == "filler":
            texts = [pp.text.lower() for pp in self.ctx.prep_phrases]
            return next((a for a, value in facts if value in texts), "unknown")
        return "unknown"

    def _conditions_answer(self, facts: tuple) -> str:
        present = self.ctx.particles
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


MANDATORY_SLOTS = {"SUBJ", "FROM-STATE", "TO-STATE"}


def _instantiate(frame: Frame, oracle: ContextOracle,
                 allocator: VarAllocator) -> tuple[Frame, tuple[UseDelta, ...]]:
    outcome = apply_use(frame, oracle.ctx.to_parsed_definition(), oracle.rules)
    slots = outcome.frame.slots
    deltas = list(outcome.deltas)
    subject = oracle.subject_text
    if subject:
        found = find_slot(slots, "SUBJ")
        if found and found[1].filler is None:
            slots = update_slot(slots, found[0], lambda s: Slot(
                s.name, s.case, s.bind, subject, s.restrictions, s.children))
            deltas.append(UseDelta("FILL", found[0], subject))
    slots = _fill_descriptors(slots, allocator)
    return outcome.frame._replace(slots=slots), tuple(deltas)


def _fill_descriptors(slots: tuple[Slot, ...],
                      allocator: VarAllocator) -> tuple[Slot, ...]:
    """A fresh descriptor in every empty mandatory slot: one named by
    MANDATORY_SLOTS, bound to a role, or with a case.  Variables are
    allocated in name order at each level, parents before children.  A
    slot that gains no descriptor, nor do its children, is kept as is."""
    filled: dict[str, Slot] = {}
    for slot in sorted(slots, key=lambda s: s.name):
        filler = slot.filler
        if filler is None and (slot.name in MANDATORY_SLOTS
                               or slot.bind is not None or slot.case):
            filler = Descriptor(allocator.fresh(), slot.restrictions)
        kids = (_fill_descriptors(slot.children, allocator) if slot.children
                else ())
        filled[slot.name] = (slot if filler is slot.filler
                             and kids == slot.children else Slot(
                                 slot.name, slot.case, slot.bind, filler,
                                 slot.restrictions, kids))
    return tuple(filled[s.name] for s in slots)


def _match_score(frame: Frame, oracle: ContextOracle) -> int:
    """Informative-match refinement: count context-confirmed constraints,
    read from the frame's match facts."""
    subjects, respects, particle_sets = frame._match_facts
    names = oracle.subject_names() if subjects and oracle.subject_text else ("",)
    score = sum(f in names for f in subjects) if names[0] else 0
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
    from .ssn import traverse  # the only use of ssn here; autoresolve needs none

    oracle = ContextOracle(SentenceContext(chunks), rules, subject_override)
    result = traverse(ssn, oracle)
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


class _GenusTable:
    """What disambiguation needs to know about one genus verb, computed
    once however many definitions use it: its verb sense keys in canonical
    order (``rank`` maps each to its position), the family carrying a
    respect group and the family whose subject is bound as the from-state,
    the head of the latter, the particles each of its senses requires, and
    the respect alternatives stated in each respect-family frame."""

    def __init__(self, word: str, lexicon: Lexicon,
                 frames: dict[SenseKey, Frame]):
        records = lexicon.records_by_key(word)
        self.keys = tuple(sorted((k for k in records if k.pos.is_verb),
                                 key=SenseKey.sort_key))
        self.rank = {k: i for i, k in enumerate(self.keys)}
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
                self.required[k] = {p for rec in records[k]
                                    for p in usage_particles(rec.usage_note)}
            elif any(s.name == "RESPECT" for s in walk_slots(frame.slots)):
                self.respect_family.append(k)
                self.respect_sets[k] = frozenset().union(*frame._match_facts[1])
        self.family_head = min(
            self.bind_family, default=None,
            key=lambda k: (len(_label_ancestors(k.label)), self.rank[k]))

    def ordered(self, keys: Iterable[SenseKey]) -> tuple[SenseKey, ...]:
        return tuple(sorted(set(keys), key=self.rank.__getitem__))


def disambiguate_in_definition(records: list[Sense], lexicon: Lexicon,
                               frames: dict[SenseKey, Frame],
                               rules: RuleTable) -> AutoResolution:
    """Propose the sense of the genus verb used by a definition: an
    adjacent from...to pair forces the respect family; an into/to object
    presumes the subject-transforming family subject to the essential-change
    check; an in-phrase is compared against the subsense respect sets."""
    return _propose(records, lexicon, frames, {})


def _propose(records: list[Sense], lexicon: Lexicon,
             frames: dict[SenseKey, Frame],
             tables: dict[str, _GenusTable]) -> AutoResolution:
    """``disambiguate_in_definition``, reading and filling ``tables``, the
    genus tables of one run."""
    using = records[0].key
    genus_word = None
    for rec in records:
        words = genus_words(rec, lexicon)
        if words:
            genus_word = words[0]
            break
    if genus_word is None:
        raise ValueError(f"{using.render()} has no genus")
    table = tables.get(genus_word)
    if table is None:
        table = tables[genus_word] = _GenusTable(genus_word, lexicon, frames)
    fam1, fam2 = table.respect_family, table.bind_family

    def result(unique, candidates, why):
        return AutoResolution(using, genus_word, unique,
                              table.ordered(candidates), why)

    phrases: list[Phrase] = []
    subject = None
    negated = False
    synonym_note_particles: tuple[str, ...] = ()
    for rec in records:
        if rec.is_synonym_line:
            synonym_note_particles = usage_particles(rec.usage_note)
            continue
        parsed = parse_sense(rec)
        if not phrases:
            phrases = list(parsed.differentiae)
            negated = parsed.negated
            subject = rec.subject_restriction

    pps = [p for p in phrases if p.kind == "prep-phrase" and not p.hedged]
    for i in range(len(pps) - 1):
        if pps[i].prep == "from" and pps[i + 1].prep == "to":
            return result(None, fam1,
                          "from...to pair: the respect family is intended; "
                          "the particular respect needs further context")

    state_pp = next((p for p in pps if p.prep in ("into", "to")), None)
    if state_pp is not None:
        if not state_pp.text:
            particles = {p.prep for p in pps}
            keep = [k for k in fam2
                    if not table.required[k] or table.required[k] & particles]
            return result(None, keep or fam2,
                          "state preposition without an object: "
                          "subject-transforming family presumed, object "
                          "awaited from context")
        if len(split_alternatives(state_pp.text)) > 1:
            return result(None, fam1 + fam2,
                          "disjunctive state object: both families apply")
        if essential_change(subject, state_pp.text):
            head = table.family_head
            if head is not None:
                return result(head, [head],
                              "essential change into a new kind: "
                              "subject-transforming family head")
        return result(None, fam1,
                      "state object within the subject's stated kinds: "
                      "accidental change, respect family")

    in_pp = next((p for p in pps if p.prep == "in" and p.text), None)
    if in_pp is not None:
        given = lower_alternatives((in_pp.text,))
        matches = [k for k in fam1 if given & table.respect_sets[k]]
        if len(matches) == 1:
            return result(matches[0], matches,
                          "respect matches exactly one subsense restriction set")
        if matches:
            return result(None, matches,
                          "respect matches several subsense restriction sets")
        return result(None, fam1,
                      "respect stated but matches no subsense set: "
                      "respect family, subsense open")

    if synonym_note_particles and set(synonym_note_particles) & {"into", "to"}:
        return result(None, fam2,
                      "bare cross-reference noted with a state preposition: "
                      "subject-transforming family presumed")

    why = ("negated use: any sense may be the negated base"
           if negated else "no discriminating context: all senses apply")
    return result(None, table.keys, why)


def autoresolve_all(lexicon: Lexicon, frames: dict[SenseKey, Frame],
                    rules: RuleTable,
                    genus_word: str = "change") -> list[AutoResolution]:
    """Proposals for every sense whose main verb is the given word."""
    tables: dict[str, _GenusTable] = {}
    out = []
    for key in lexicon.sense_keys():
        if not key.pos.is_verb or key.headword == genus_word:
            continue
        records = lexicon.records_for(key)
        if any(genus_word in genus_words(rec, lexicon) for rec in records):
            out.append(_propose(records, lexicon, frames, tables))
    return sorted(out, key=lambda r: SenseKey.sort_key(r.using))


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


def _descriptor_paths(frame: Frame) -> dict[str, str]:
    """Unfilled-slot descriptor vars by role; the role is the slot's bound
    alias when it has one, so bindings survive a change of frame shape."""
    out: dict[str, str] = {}
    for slot in walk_slots(frame.slots):
        if isinstance(slot.filler, Descriptor):
            out.setdefault(slot.bind or slot.name, slot.filler.var)
    return out


def _literal_fills(frame: Frame) -> dict[str, str]:
    out: dict[str, str] = {}
    for slot in walk_slots(frame.slots):
        if isinstance(slot.filler, str):
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
                                      if c.kind != "noun-phrase"]
            entity.chunks = merged
            # re-run the pending result with the merged evidence
            if entity.result_index is not None:
                old = results[entity.result_index]
                old_desc = _descriptor_paths(old.frame)
                prior_ssn = ssns[old.lemma]
                renewed = disambiguate(old.word, merged, prior_ssn, frames,
                                       rules, lexicon, allocator,
                                       subject_override=entity.text)
                results[entity.result_index] = renewed
                new_fills = _literal_fills(renewed.frame)
                for path, var in old_desc.items():
                    if path in new_fills:
                        state.bindings.append((var, new_fills[path]))
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
