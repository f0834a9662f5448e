"""Definition-driven disambiguation of running text: minimal chunking,
network traversal with context-probing answers, frame instantiation with
descriptors for unfilled slots, open-question reporting, and cross-sentence
slot carryover.  A sentence's roles and the facts its questions and
candidates read are computed once per sentence.

No inference model and no world-knowledge store: unresolved ambiguity is
surfaced, never guessed.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .frames import (
    Descriptor,
    Frame,
    Slot,
    UseDelta,
    _apply_use_to,
    _entry_path,
    _match_facts,
    essential_change,
    find_slot,
    frame_to_text,
    walk_slots,
)
from .lexicon import (
    DETERMINERS,
    PARTICLES,
    Lexicon,
    SenseKey,
    _is_adverb,
    head_noun,
    lower_alternatives,
    split_alternatives,
)
from .prep_rules import RuleTable

# true for type checkers only: ``typing.TYPE_CHECKING`` would import typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .corpus import Analysis
    from .ssn import SSN, Question

PRONOUNS = {"it", "they", "he", "she", "we", "you", "i", "them"}
_COORDINATORS = {"or", "and"}


class ChunkError(ValueError):
    pass


class Chunk(namedtuple("Chunk", "kind text prep lemma", defaults=(None, None))):
    """A sentence chunk: its kind (verb, noun-phrase, prep-phrase, adverb
    or particle), its text, a prep-phrase's preposition, and a verb's
    lexicon headword (``lemma``)."""

    __slots__ = ()
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


def _verb_lemma(word: str, verb_words: frozenset[str]) -> str | None:
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
        if _is_adverb(w):
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
    """The roles of one sentence's chunks, found in one pass: the (first)
    verb, the subject (the first noun phrase before the verb), the
    object (the first noun phrase after it), the prep phrases, the
    prepositions and particles present, and the differentiae (the prep
    phrase and adverb chunks), so that a sentence applies to a frame as a
    use does (``frames._apply_use_to``)."""

    __slots__ = ("verb", "subject", "object_np", "prep_phrases", "particles",
                 "differentiae")

    def __init__(self, chunks: list[Chunk]):
        self.verb: Chunk | None = None
        self.subject: Chunk | None = None
        self.object_np: Chunk | None = None
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

    def pp_object(self, preps: Sequence[str]) -> Chunk | None:
        for c in self.prep_phrases:
            if c.prep in preps:
                return c
        return None


class ContextOracle:
    """Answers network questions by probing the sentence context, and keeps
    the facts of the sentence that several questions and candidates read,
    each computed once: the subject's text, its lowercased head and text
    (on first use) and the lowercased alternatives of the first in-phrase.
    The context holds the particles present."""

    __slots__ = ("ctx", "rules", "subject_text", "in_given", "_subject_names")

    def __init__(self, ctx: SentenceContext, rules: RuleTable,
                 subject_override: str | None = None):
        self.ctx = ctx
        self.rules = rules
        self.subject_text = subject_override or (
            ctx.subject.text if ctx.subject else None)
        in_pp = ctx.pp_object(("in",))
        self.in_given = (None if in_pp is None
                         else lower_alternatives((in_pp.text,)))
        self._subject_names: tuple[str, str] | None = None

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
        if kind == "ADJ-COMPLEMENT":  # the noun phrase after the verb
            return "absent" if self.ctx.object_np is None else "present"
        return "unknown"

    def _conditions_answer(self, facts: tuple) -> str:
        present = self.ctx.particles
        if not present:  # no USED-WITH condition is met
            return "unknown"
        scored: list[tuple[int, str]] = []
        base: tuple[int, str] | None = None
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

class DisambiguationResult(namedtuple(
        "DisambiguationResult",
        "word lemma candidates frame open_questions deltas", defaults=((),))):
    """A parsed verb: the sense keys left, the instantiated frame, the
    questions left open and the deltas of the sentence's use."""

    __slots__ = ()

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
            subject: str | None) -> tuple[Slot, ...]:
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
                 allocator: VarAllocator | None = None,
                 subject_override: str | None = None) -> DisambiguationResult:
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
# multisentence parsing

class Entity:
    """A discourse referent, the chunks gathered for it so far and the
    index of its pending result, that of the sentence that introduced it."""

    __slots__ = ("var", "head", "text", "chunks", "result_index")

    def __init__(self, var: str, head: str, text: str, chunks: list[Chunk],
                 result_index: int):
        self.var, self.head, self.text = var, head, text
        self.chunks, self.result_index = chunks, result_index


class DiscourseState:
    """The entities of a discourse and the (variable, value) bindings made
    so far."""

    __slots__ = ("entities", "bindings")

    def __init__(self):
        self.entities: list[Entity] = []
        self.bindings: list[tuple[str, str]] = []

    def find_entity(self, subject: Chunk | None) -> Entity | None:
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
            raise ChunkError(f"no network for sentence {idx + 1}")
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
            old = results[entity.result_index]
            old_desc = _fills_by_role(old.frame, Descriptor)
            renewed = disambiguate(old.word, merged, ssns[old.lemma], frames,
                                   rules, lexicon, allocator,
                                   subject_override=entity.text)
            results[entity.result_index] = renewed
            new_fills = _fills_by_role(renewed.frame, str)
            for role, descriptor in old_desc.items():
                if role in new_fills:
                    state.bindings.append((descriptor.var, new_fills[role]))
        elif subject is not None:
            # the fresh variable fixes the descriptor numbering
            state.entities.append(Entity(allocator.fresh(), subject.head,
                                         subject.text, list(chunks),
                                         len(results)))

        results.append(disambiguate(verb.text, chunks, ssns[verb.lemma],
                                    frames, rules, lexicon, allocator,
                                    subject_override=subject_override))

    return results, state


def results_to_tsv(results: Iterable[DisambiguationResult]) -> str:
    rows = ["word\tsenses\tfills"]
    for r in results:
        fills = "; ".join(d.render() for d in r.deltas)
        senses = ",".join(k.render() for k in r.candidates)
        rows.append(f"{r.word}\t{senses}\t{fills}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# the parse and discourse commands, here so that no other command
# compiles them

def run_command(args, a: Analysis) -> tuple[str, bool]:
    """The CLI's parse or discourse command on the run's analysis: its
    output, and whether a ``--strict`` parse left ambiguity.  A data error
    raises ValueError."""
    lexicon, frames, ssns = a.lexicon, a.frames, a.networks
    if args.command == "parse":
        chunks = chunk_sentence(args.text, lexicon)
        verb = SentenceContext(chunks).verb
        if verb is None or verb.lemma not in ssns:
            raise ValueError("no known verb in the sentence")
        result = disambiguate(verb.text, chunks, ssns[verb.lemma], frames,
                              a.rules, lexicon, VarAllocator())
        text = (results_to_tsv([result]) if args.format == "tsv"
                else result.to_text())
        return text, args.strict and (len(result.candidates) > 1
                                      or bool(result.open_questions))

    with open(args.file, encoding="utf-8") as fh:
        sentences = [ln.strip() for ln in fh if ln.strip()]
    results, state = parse_discourse(sentences, lexicon, ssns, frames, a.rules)
    if args.format == "tsv":
        return results_to_tsv(results), False
    parts = [r.to_text() for r in results]
    if state.bindings:
        parts.append("bindings:\n" + "\n".join(
            f"  ?{var} = {value}" for var, value in state.bindings) + "\n")
    return "\n".join(parts), False


def __getattr__(name: str):
    """``autoresolve_all`` lives in ``autoresolve``, which the parse
    commands never load; perfbench still reads it here.  Resolved on first
    read, then kept as a module attribute."""
    if name != "autoresolve_all":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .autoresolve import autoresolve_all
    globals()[name] = autoresolve_all
    return autoresolve_all
