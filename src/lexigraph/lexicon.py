"""Lexical entries, LEXF ingestion, and structural parsing of definitions.

A definition line is segmented deterministically: verb head(s) first, then
greedy prepositional-phrase chunks running from a preposition token to the
token before the next preposition (or end of line). This is longest-match
segmentation, not syntax.
"""
from __future__ import annotations

import re
from enum import Enum
from functools import cache, cached_property
from typing import Container, Iterable, NamedTuple, Optional


class LexfError(ValueError):
    """Ingestion failure; message carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DefinitionParseError(ValueError):
    pass


class PartOfSpeech(str, Enum):
    VI = "vi"
    VT = "vt"
    VB = "vb"  # both transitive and intransitive
    NOUN = "n"
    ADJ = "adj"
    ADV = "adv"
    PREP = "prep"

    def __init__(self, value: str):
        # a plain attribute, set once per member: a property would run on
        # every read and look up the verb members through the metaclass
        self.is_verb = value in ("vi", "vt", "vb")

    def accepts_target(self, target: "PartOfSpeech") -> bool:
        """POS compatibility for genus arcs: vi uses reach vi and vb senses,
        vt uses reach vt and vb; vb uses reach any verb sense."""
        if not (self.is_verb and target.is_verb):
            return self is target
        if self is _VB:
            return True
        return target is self or target is _VB


# the members that per-record and per-arc code reads, as module names
_VI, _VT, _VB = PartOfSpeech.VI, PartOfSpeech.VT, PartOfSpeech.VB


_LABEL_RE = re.compile(r"^(\d+)([a-z])?(?:\((\d+)\))?$")


@cache
def _label_parts(text: str) -> tuple[int, str, int]:
    """(number, letter, parenthesized number) of a sense label, memoized."""
    m = _LABEL_RE.match(text)
    if m is None:
        raise ValueError(f"bad sense label: {text!r}")
    return int(m.group(1)), m.group(2) or "", int(m.group(3) or 0)


@cache
def _label_ancestors(text: str) -> tuple[str, ...]:
    """Texts of a label's ancestors, nearest first ("1b", "1" for "1b(2)")."""
    num, letter, paren = _label_parts(text)
    return ((f"{num}{letter}",) if paren else ()) + ((str(num),) if letter else ())


class _LineBlind:
    """``==`` and ``hash`` of a record over every field but its last,
    ``line``: where a record was read is no part of what it says."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] != other[:-1]

    def __hash__(self):
        return hash(self[:-1])


class _SenseLabelFields(NamedTuple):
    text: str


class SenseLabel(_SenseLabelFields):
    """Hierarchical sense label: digit(s), optional letter, optional
    parenthesized number ("1", "1b", "1b(2)"), checked on construction."""

    __slots__ = ()

    def __new__(cls, text: str):
        _label_parts(text)
        return super().__new__(cls, text)

    @classmethod
    def _make(cls, iterable) -> "SenseLabel":  # so _replace checks too
        return cls(*iterable)

    def parent(self) -> Optional["SenseLabel"]:
        return next(iter(self.ancestors()), None)

    def ancestors(self) -> list["SenseLabel"]:
        return [SenseLabel(text) for text in _label_ancestors(self.text)]

    def __str__(self) -> str:
        return self.text


class SenseKey(NamedTuple):
    headword: str
    pos: PartOfSpeech
    homograph: int
    label: str

    def render(self) -> str:
        return f"{self.headword}:{self.pos.value}:{self.homograph}:{self.label}"

    def sort_key(self) -> tuple:
        # a str enum compares as its value, without the ``value`` lookup
        return (self.headword, self.pos, self.homograph,
                _label_parts(self.label))


_STATUS_SIMPLE = {"obs", "dial", "Brit", "specif"}


class _SenseFields(NamedTuple):
    headword: str
    pos: PartOfSpeech
    homograph: int
    label: SenseLabel
    status: frozenset[str] = frozenset()
    raw_definition: str = ""
    usage_note: Optional[str] = None
    synonym_refs: tuple[str, ...] = ()
    line: int = 0


class _Kept:
    """A fact of a record, computed on its first read and kept in the
    record's ``__dict__``, which later reads find first: a non-data
    descriptor.  ``parse_lexf`` writes the key and flags of the records it
    makes.
    Not ``functools.cached_property``, whose first read takes a lock on
    Python 3.11."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.compute(record)
        return value


_USED_WITH = re.compile(r"^(?:usu\.\s+|usually\s+)?used with\s+(.+)$")
_PARTICLE_SEP = re.compile(r"\s+or\s+|,\s*")


def _usage_particles(note: Optional[str]) -> tuple[str, ...]:
    """Particles named by a 'used with X [or Y]' usage note."""
    m = _USED_WITH.match(note.strip()) if note else None
    if not m:
        return ()
    return tuple(p.strip() for p in _PARTICLE_SEP.split(m.group(1))
                 if p.strip())


def _subject_restriction(status: frozenset[str]) -> Optional[str]:
    for s in status:
        if s.startswith("subject:"):
            return s.split(":", 1)[1]
    return None


class Sense(_LineBlind, _SenseFields):
    """One definition (or synonym) line of an entry. Coordinate lines under
    the same label are separate Sense records sharing the label.  Its key
    and the facts below are kept on the record (``_Kept``)."""

    @_Kept
    def key(self) -> SenseKey:
        return SenseKey(self.headword, self.pos, self.homograph, self.label.text)

    @_Kept
    def is_synonym_line(self) -> bool:
        return bool(self.synonym_refs) and not self.raw_definition

    @_Kept
    def usage_particles(self) -> tuple[str, ...]:
        return _usage_particles(self.usage_note)

    @_Kept
    def subject_restriction(self) -> Optional[str]:
        return _subject_restriction(self.status)

    @_Kept
    def _parsed(self) -> Optional["ParsedDefinition"]:
        return (None if self.is_synonym_line
                else parse_definition(self.raw_definition, self.pos))

    @property
    def field_labels(self) -> frozenset[str]:
        return frozenset(s.split(":", 1)[1] for s in self.status if s.startswith("field:"))


class _PhraseFields(NamedTuple):
    kind: str
    text: str
    prep: Optional[str] = None
    hedged: bool = False


class Phrase(_PhraseFields):
    """One differentia of a definition, checked on construction."""

    __slots__ = ()

    def __new__(cls, kind: str, text: str, prep: Optional[str] = None,
                hedged: bool = False):
        if (kind == "prep-phrase") != (prep is not None):
            raise ValueError("prep present iff kind is prep-phrase")
        return tuple.__new__(cls, (kind, text, prep, hedged))

    @classmethod
    def _make(cls, iterable) -> "Phrase":  # so _replace checks too
        return cls(*iterable)


class ParsedDefinition(NamedTuple):
    genus: tuple[str, ...]
    genus_complement: Optional[str] = None
    specified_object: Optional[str] = None
    object_np: Optional[str] = None
    differentiae: tuple[Phrase, ...] = ()
    negated: bool = False

    @property
    def transitive_use(self) -> bool:
        return self.specified_object is not None or self.object_np is not None


class _ResolutionRecordFields(NamedTuple):
    from_key: SenseKey
    genus_word: str
    target: SenseKey
    line: int = 0


class ResolutionRecord(_LineBlind, _ResolutionRecordFields):
    """Resolves one genus arc to a single target sense."""

    __slots__ = ()


class ResolutionError(ValueError):
    """A resolution record that names no arc or no known target."""


def resolution_targets(records: Iterable[ResolutionRecord],
                       senses: Container[SenseKey],
                       arcs: Container[tuple[SenseKey, str]],
                       ) -> dict[tuple[SenseKey, str], SenseKey]:
    """The one target of each (from sense, genus word) the records resolve.
    Records are checked in order and the first bad one raises
    ResolutionError: its target must be a sense of its genus word and be
    in ``senses``, and its (from sense, genus word) must be in ``arcs``.
    When several records name the same arc, the last wins."""
    chosen: dict[tuple[SenseKey, str], SenseKey] = {}
    for record in records:
        target = record.target
        if target.headword != record.genus_word:
            raise ResolutionError(f"target {target.render()} is not a sense "
                                  f"of {record.genus_word!r}")
        if target not in senses:
            raise ResolutionError(f"unknown target sense {target.render()}")
        arc = (record.from_key, record.genus_word)
        if arc not in arcs:
            raise ResolutionError(f"no arc from {record.from_key.render()} "
                                  f"via {record.genus_word!r}")
        chosen[arc] = target
    return chosen


class _LexiconFields(NamedTuple):
    entries: tuple[Sense, ...]
    seed_frames: dict   # SenseKey -> tuple[str, ...]
    resolutions: tuple[ResolutionRecord, ...]


class Lexicon(_LexiconFields):
    """Sense records in file order, seed frames and resolution records.

    A Lexicon is an immutable value: a NamedTuple whose ``entries`` is a
    tuple.  The lookups below read by-key and by-headword indexes that
    are built from ``entries`` on first use and kept for the life of the
    instance, so they assume ``entries`` never changes.  The indexes are
    not fields: ``==`` and ``lexf_writer.serialize_lexf`` ignore them.  The
    records of a key keep file order; the keys of a headword, and the
    headwords, come in ``SenseKey.sort_key`` order, so no reader sorts them
    again.
    """

    def __new__(cls, entries: tuple[Sense, ...] = (),
                seed_frames: Optional[dict] = None,
                resolutions: tuple[ResolutionRecord, ...] = ()):
        return super().__new__(cls, entries,
                               {} if seed_frames is None else seed_frames,
                               resolutions)

    # The index lists are never handed out: lookups return copies.
    @cached_property
    def _by_key(self) -> dict[SenseKey, list[Sense]]:
        grouped: dict[SenseKey, list[Sense]] = {}
        for s in self.entries:
            grouped.setdefault(s.key, []).append(s)
        return grouped

    @cached_property
    def _sorted_keys(self) -> list[SenseKey]:
        """The sense keys by ``SenseKey.sort_key``, equal ones (labels
        such as "1" and "01") in file order."""
        return sorted(self._by_key, key=SenseKey.sort_key)

    @cached_property
    def _genus(self) -> dict[int, list[str]]:
        """Genus words by record id; ``entries`` keeps each record alive."""
        return {id(s): _genus_words(s, self) for s in self.entries}

    @cached_property
    def _resolved(self) -> dict[tuple[SenseKey, str], SenseKey]:
        """The target of each (verb sense, genus word) the R records
        resolve, once they pass the checks the definition graph makes
        (``resolution_targets``), without building the graph: its arcs are
        the genus words of the verb records."""
        genus = self._genus
        arcs = {(s.key, word) for s in self.entries if s.pos.is_verb
                for word in genus[id(s)]}
        return resolution_targets(self.resolutions, self._by_key, arcs)

    @cached_property
    def _by_headword(self) -> dict[str, list[SenseKey]]:
        """Each headword's sense keys, one run of ``_sorted_keys`` each, so
        the headwords are sorted too."""
        grouped: dict[str, list[SenseKey]] = {}
        for k in self._sorted_keys:
            grouped.setdefault(k.headword, []).append(k)
        return grouped

    @cached_property
    def verb_headwords(self) -> frozenset[str]:
        return frozenset(s.headword for s in self.entries if s.pos.is_verb)

    @cached_property
    def chunking_preps(self) -> frozenset[str]:
        """What the sentence chunker reads as a preposition: a preposition
        headword or one of ``CHUNKING_PREPS``."""
        return frozenset(s.headword for s in self.entries
                         if s.pos is PartOfSpeech.PREP) | CHUNKING_PREPS

    def sense_keys(self) -> list[SenseKey]:
        return list(self._by_key)

    def records_for(self, key: SenseKey) -> list[Sense]:
        return list(self._by_key.get(key, ()))

    def headwords(self) -> list[str]:
        return list(self._by_headword)

    def has_headword(self, word: str) -> bool:
        return word in self._by_headword


def senses_of(lexicon: Lexicon, headword: str,
              pos: Optional[PartOfSpeech] = None) -> list[Sense]:
    """All senses of a headword across homographs: its keys in
    ``SenseKey.sort_key`` order, the records of a key in file order."""
    by_key = lexicon._by_key
    return [s for k in lexicon._by_headword.get(headword, ())
            if pos is None or k.pos is pos for s in by_key[k]]


def genus_words(sense: Sense, lexicon: Lexicon) -> list[str]:
    """The genus words of one record, in definition order: the lowercased
    synonym references of a synonym line, else the parsed genus heads.  A
    phrasal head ("give up") stays whole when the lexicon lists the phrase
    as a headword and falls back to its bare verb otherwise.  A record of
    ``lexicon`` reads them from its index, computed once per lexicon."""
    words = lexicon._genus.get(id(sense))
    return list(words) if words is not None else _genus_words(sense, lexicon)


def _genus_words(sense: Sense, lexicon: Lexicon) -> list[str]:
    if sense.is_synonym_line:
        return [ref.lower() for ref in sense.synonym_refs]
    return [head if " " not in head or lexicon.has_headword(head)
            else head.split()[0]
            for head in parse_sense(sense).genus]


def merge_lexicons(*lexicons: Lexicon) -> Lexicon:
    entries: list[Sense] = []
    seeds: dict = {}
    resolutions: list[ResolutionRecord] = []
    header_sets: list[set] = []
    for lx in lexicons:
        headers = {(s.headword, s.pos, s.homograph) for s in lx.entries}
        for earlier in header_sets:
            dup = earlier & headers
            if dup:
                h = sorted(dup, key=lambda t: (t[0], t[1].value, t[2]))[0]
                raise LexfError(f"duplicate entry across files: {h[0]}:{h[1].value}:{h[2]}")
        header_sets.append(headers)
        entries.extend(lx.entries)
        for k, v in lx.seed_frames.items():
            seeds[k] = seeds.get(k, ()) + tuple(v)
        resolutions.extend(lx.resolutions)
    return Lexicon(tuple(entries), seeds, tuple(resolutions))


# ---------------------------------------------------------------------------
# LEXF ingestion

_POS = {p.value: p for p in PartOfSpeech}


def _parse_sense_key(text: str, line: int) -> SenseKey:
    parts = text.rsplit(":", 3)
    if len(parts) == 4 and parts[2].isdigit():
        head, pos, hom, label = parts
        homograph = int(hom)
    else:
        parts = text.rsplit(":", 2)
        if len(parts) != 3:
            raise LexfError(f"bad sense key {text!r}", line)
        head, pos, label = parts
        homograph = 1
    p = _POS.get(pos)
    if p is None:
        raise LexfError(f"bad part of speech in key {text!r}", line)
    return SenseKey(head, p, homograph, _parse_label(label, line).text)


def _parse_label(text: str, line: int) -> SenseLabel:
    try:
        return SenseLabel(text)
    except ValueError as exc:
        raise LexfError(str(exc), line)


def _parse_status(csv: str, line: int) -> frozenset[str]:
    out = set()
    for tok in filter(None, (t.strip() for t in csv.split(","))):
        if tok in _STATUS_SIMPLE or tok.startswith("subject:") or tok.startswith("field:"):
            out.add(tok)
        else:
            raise LexfError(f"unknown status label {tok!r}", line)
    return frozenset(out)


def _memo(memo: dict, text: str, line: int, parse):
    """``parse(text, line)``, once per distinct text of a file: a text that
    fails is not stored, so it fails again wherever it recurs."""
    value = memo.get(text)
    if value is None:
        value = memo[text] = parse(text, line)
    return value


def parse_lexf(text: str) -> Lexicon:
    """Ingest a LEXF v1 file. Deterministic: same bytes, same Lexicon.
    The records of a file share one label, status set, usage particle
    tuple and R-record sense key object per distinct text, and each record
    is made with its key and flags kept (``Sense``)."""
    entries: list[Sense] = []
    seeds: dict[SenseKey, tuple[str, ...]] = {}
    resolutions: list[ResolutionRecord] = []
    current: Optional[tuple[str, PartOfSpeech, int]] = None
    seen_headers: set[tuple] = set()
    seen_records: set[tuple] = set()
    pending_seeds: list[tuple[SenseKey, str, int]] = []
    labels: dict[str, SenseLabel] = {}
    statuses: dict[str, frozenset[str]] = {}
    keys: dict[str, SenseKey] = {}
    particles: dict[Optional[str], tuple[str, ...]] = {}

    def add(sense: Sense, key: SenseKey, synonym: bool) -> None:
        """Keep ``sense`` with the values of its kept facts."""
        note = sense.usage_note
        if note not in particles:
            particles[note] = _usage_particles(note)
        facts = sense.__dict__
        facts["key"] = key
        facts["is_synonym_line"] = synonym
        facts["usage_particles"] = particles[note]
        facts["subject_restriction"] = _subject_restriction(sense.status)
        entries.append(sense)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            continue
        kind, _, rest = stripped.partition("|")
        if kind == "E":
            fields = rest.split("|")
            if len(fields) != 3:
                raise LexfError("E record needs headword|pos|homograph", lineno)
            headword, pos_text, hom_text = fields
            pos = _POS.get(pos_text)
            if pos is None:
                raise LexfError(f"bad part of speech {pos_text!r}", lineno)
            if not hom_text.isdigit() or int(hom_text) < 1:
                raise LexfError(f"bad homograph {hom_text!r}", lineno)
            header = (headword, pos, int(hom_text))
            if header in seen_headers:
                raise LexfError(f"duplicate entry {headword}:{pos_text}:{hom_text}", lineno)
            seen_headers.add(header)
            current = header
        elif kind == "S":
            if current is None:
                raise LexfError("S record outside an entry", lineno)
            fields = rest.split("|")
            if len(fields) not in (3, 4):
                raise LexfError("S record needs label|status|definition|[note]", lineno)
            label_text, status_csv, definition = fields[0], fields[1], fields[2]
            note = fields[3].strip() if len(fields) == 4 and fields[3].strip() else None
            label = _memo(labels, label_text, lineno, _parse_label)
            definition = definition.strip()
            if not definition:
                raise LexfError("empty definition on S record", lineno)
            status = _memo(statuses, status_csv, lineno, _parse_status)
            key = SenseKey(*current, label.text)
            record_id = (key, definition, note)
            if record_id in seen_records:
                raise LexfError(f"duplicate sense record {key.render()}", lineno)
            seen_records.add(record_id)
            add(Sense(*current, label, status, definition, note, (), lineno),
                key, False)
        elif kind == "Y":
            if current is None:
                raise LexfError("Y record outside an entry", lineno)
            fields = rest.split("|")
            if len(fields) not in (2, 3):
                raise LexfError("Y record needs label|SYNONYM|[note]", lineno)
            label_text, syn = fields[0], fields[1]
            note = fields[2].strip() if len(fields) == 3 and fields[2].strip() else None
            if not syn or not syn.isupper():
                raise LexfError(f"synonym must be a single uppercase word: {syn!r}", lineno)
            label = _memo(labels, label_text, lineno, _parse_label)
            key = SenseKey(*current, label.text)
            record_id = (key, syn, note)
            if record_id in seen_records:
                raise LexfError(f"duplicate synonym record {key.render()}", lineno)
            seen_records.add(record_id)
            add(Sense(*current, label, frozenset(), "", note, (syn,), lineno),
                key, True)
        elif kind == "F":
            if current is None:
                raise LexfError("F record outside an entry", lineno)
            # split only twice: the payload may contain bars (CASE PAT|AGT)
            label_text, _, payload = rest.partition("|")
            if not payload:
                raise LexfError("F record needs label|seed-line", lineno)
            label = _memo(labels, label_text, lineno, _parse_label)
            key = SenseKey(*current, label.text)
            pending_seeds.append((key, payload.strip(), lineno))
        elif kind == "R":
            fields = rest.split("|")
            if len(fields) != 3:
                raise LexfError("R record needs from|genus|to", lineno)
            from_key = _memo(keys, fields[0], lineno, _parse_sense_key)
            target = _memo(keys, fields[2], lineno, _parse_sense_key)
            genus_word = fields[1].strip()
            if not genus_word:
                raise LexfError("R record needs a genus word", lineno)
            resolutions.append(ResolutionRecord(from_key, genus_word, target, lineno))
        else:
            raise LexfError(f"unknown record kind {kind!r}", lineno)

    known = {s.key for s in entries}
    for key, payload, lineno in pending_seeds:
        if key not in known:
            raise LexfError(f"F record for unknown sense {key.render()}", lineno)
        seeds[key] = seeds.get(key, ()) + (payload,)
    return Lexicon(tuple(entries), seeds, tuple(resolutions))


# ---------------------------------------------------------------------------
# Definition segmentation

CHUNKING_PREPS = {
    "into", "to", "from", "in", "by", "with", "within", "between", "for",
    "against", "on", "at", "through", "over", "upon", "toward", "towards",
    "without", "under", "about",
}
# "of" never opens a chunk: it glues nominals ("means of conveyance").

PARTICLES = {"up", "over", "out", "off", "round", "down", "away"}
COPULAR_HEADS = {"be", "become", "turn", "grow", "get", "remain"}
DETERMINERS = {"a", "an", "the", "one", "some", "any", "this", "that",
               "these", "those", "one's", "its", "their", "his", "her"}
OBJECT_OPENERS = DETERMINERS | {"oneself", "something", "someone", "what",
                                "whatever", "itself"}
ADVERB_WORDS = {"esp.", "especially", "usu.", "usually", "often", "more",
                "less", "very", "too", "sometimes"}
HEDGE_WORDS = {"usu.", "usually", "often", "esp.", "especially", "sometimes",
               "chiefly"}
WH_WORDS = {"what", "whatever", "who", "whoever", "which"}


def _is_adverb(token: str) -> bool:
    return token in ADVERB_WORDS or (token.endswith("ly") and len(token) > 3)


def _tokenize(text: str) -> list[str]:
    """Whitespace tokens, with parenthesized groups kept whole."""
    if "(" not in text:
        return text.split()
    out: list[str] = []
    buf: list[str] = []
    depth = 0
    for tok in text.split():
        opens = tok.count("(")
        closes = tok.count(")")
        if depth > 0 or (opens > closes):
            buf.append(tok)
            depth += opens - closes
            if depth <= 0:
                out.append(" ".join(buf))
                buf = []
                depth = 0
        else:
            out.append(tok)
    if buf:
        out.append(" ".join(buf))
    return out


def _is_paren(token: str) -> bool:
    return token.startswith("(") and token.endswith(")")


_ALTERNATIVE_SEP = re.compile(r",\s*(?:or\s+)?|\s+or\s+")


def split_alternatives(text: str) -> tuple[str, ...]:
    """Set semantics for restriction phrases: split on commas and 'or',
    and drop a leading determiner from each part."""
    out = []
    for p in _ALTERNATIVE_SEP.split(" ".join(text.split())):
        p = p.strip()
        first, _, rest = p.partition(" ")
        if rest and first in DETERMINERS:
            p = rest
        if p:
            out.append(p)
    return tuple(out)


def lower_alternatives(phrases: Iterable[str]) -> frozenset[str]:
    """The lowercased alternatives of each phrase."""
    return frozenset(a.lower() for p in phrases for a in split_alternatives(p))


def dot_quote(text: str) -> str:
    """A DOT quoted string, for the graph and network exports: backslashes
    and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def head_noun(text: str) -> str:
    """Head of a noun phrase: last word of its first alternative."""
    alts = split_alternatives(text)
    if not alts:
        return ""
    words = alts[0].split()
    return words[-1].rstrip(".,;") if words else ""


# ``lowers`` below is ``tokens`` lowercased, computed once per definition.

def _consume_phrase_text(tokens: list[str], lowers: list[str],
                         i: int) -> tuple[str, int]:
    """Object of a prep phrase: tokens up to the next chunk boundary."""
    start = i
    n = len(tokens)
    while i < n:
        bare = lowers[i]
        if bare in CHUNKING_PREPS:
            break
        nxt = lowers[i + 1] if i + 1 < n else ""
        if (bare == "or" or bare in HEDGE_WORDS) and nxt in CHUNKING_PREPS:
            break  # "or" (or a hedge) introducing a new coordinated phrase
        if bare == "as" and nxt == "if":
            break
        i += 1
    return " ".join(tokens[start:i]), i


def _segment_differentiae(tokens: list[str], lowers: list[str],
                          start: int) -> list[Phrase]:
    phrases: list[Phrase] = []
    i = start
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        bare = lowers[i]
        hedge = False
        if bare in HEDGE_WORDS and i + 1 < n and lowers[i + 1] in CHUNKING_PREPS:
            hedge = True
            i += 1
            tok = tokens[i]
            bare = lowers[i]
        if bare == "or" and i + 1 < n and lowers[i + 1] in CHUNKING_PREPS:
            i += 1
            continue
        if bare == "as" and i + 1 < n and lowers[i + 1] == "if":
            # "as if ..." is a non-literal comparison; absorb to line end
            text = " ".join(tokens[i:])
            phrases.append(Phrase("clause", text, None, True))
            break
        if _is_paren(tok):
            inner = tok[1:-1].strip()
            if phrases and phrases[-1].kind == "prep-phrase":
                prev = phrases[-1]
                phrases[-1] = Phrase(prev.kind, f"{prev.text} {tok}".strip(),
                                     prev.prep, prev.hedged)
            else:
                phrases.append(Phrase("clause", inner, None, True))
            i += 1
            continue
        if bare in CHUNKING_PREPS:
            prep = bare
            i += 1
            # "with or as if with X": hedged variant of a single phrase
            if (i + 2 < n and lowers[i] == "or"
                    and lowers[i + 1] == "as" and lowers[i + 2] == "if"
                    and i + 3 < n and lowers[i + 3] == prep):
                i += 4
                hedge = True
            text, i = _consume_phrase_text(tokens, lowers, i)
            # a parenthetical right inside the object stays with it
            while i < n and _is_paren(tokens[i]):
                text = f"{text} {tokens[i]}".strip()
                i += 1
            phrases.append(Phrase("prep-phrase", text, prep, hedge))
            continue
        if bare in ("or", "and"):
            i += 1
            continue
        if _is_adverb(bare) or bare in HEDGE_WORDS:
            parts = [tok]
            i += 1
            while i < n:
                nxt = lowers[i]
                if _is_adverb(nxt):
                    parts.append(tokens[i])
                    i += 1
                elif nxt == "or" and i + 1 < n and _is_adverb(lowers[i + 1]):
                    parts.append(tokens[i])
                    parts.append(tokens[i + 1])
                    i += 2
                else:
                    break
            phrases.append(Phrase("adverb", " ".join(parts)))
            continue
        # stray matter: gather until the next boundary as a clause
        text, j = _consume_phrase_text(tokens, lowers, i)
        if j == i:
            j += 1
            text = tok
        phrases.append(Phrase("clause", text))
        i = j
    return phrases


def parse_definition(text: str, pos: PartOfSpeech) -> ParsedDefinition:
    """Segment a definition into genus head(s), complement/object, and
    differentiae. Total over verb definitions in the bundled corpus."""
    if not text or not text.strip():
        raise DefinitionParseError("empty definition")
    if not pos.is_verb:
        # non-verb senses: no verb genus; keep the head noun for callers
        head = head_noun(text)
        return ParsedDefinition(genus=(), object_np=None,
                                genus_complement=head or None)

    tokens = _tokenize(text)
    lowers = [t.lower() for t in tokens]
    i = 0
    negated = False
    if tokens and lowers[0] == "to":
        i += 1  # infinitive marker
    if i < len(tokens) and lowers[i] == "not":
        negated = True
        i += 1
    if i >= len(tokens):
        raise DefinitionParseError(f"no verb head in {text!r}")

    def read_head(j: int) -> tuple[str, int]:
        head = lowers[j]
        j += 1
        if (j < len(tokens) and lowers[j] in PARTICLES
                and (j + 1 >= len(tokens)
                     or lowers[j + 1] in CHUNKING_PREPS
                     or lowers[j + 1] in WH_WORDS)):
            head = f"{head} {lowers[j]}"
            j += 1
        return head, j

    head, i = read_head(i)
    first_word = head.split()[0]
    if (not head.replace(" ", "").isalpha()
            or first_word in DETERMINERS
            or first_word in CHUNKING_PREPS
            or first_word == "of"):
        raise DefinitionParseError(f"no verb head in {text!r}")
    heads = [head]
    # coordination directly after the head: "lose or acquire", and the
    # "turn into or become" pattern where a prep precedes the coordinator
    while i < len(tokens):
        nxt = lowers[i]
        if nxt in ("or", "and") and i + 1 < len(tokens):
            h, i = read_head(i + 1)
            heads.append(h)
        elif (nxt in CHUNKING_PREPS and i + 1 < len(tokens)
              and lowers[i + 1] == "or" and i + 2 < len(tokens)
              and lowers[i + 2] != "as"):
            # "turn into or become ..." coordinates heads across the prep;
            # "with or as if with ..." instead opens a hedged phrase
            i += 2
            h, i = read_head(i)
            heads.append(h)
        else:
            break

    # span before the first differentia boundary: complement or object
    genus_complement = None
    specified_object = None
    object_np = None
    span: list[str] = []
    while i < len(tokens):
        bare = lowers[i]
        if bare in CHUNKING_PREPS:
            break
        if _is_adverb(bare) or bare in HEDGE_WORDS:
            # attributive adverbs stay inside the span ("materially
            # different"); phrase-final ones open the differentiae
            nxt = lowers[i + 1] if i + 1 < len(tokens) else ""
            attributive = (span and nxt and nxt not in CHUNKING_PREPS
                           and not _is_adverb(nxt) and not _is_paren(tokens[i + 1])
                           and nxt != "as")
            if not attributive:
                break
        if bare == "as" and i + 1 < len(tokens) and lowers[i + 1] == "if":
            break
        if _is_paren(tokens[i]) and not span:
            specified_object = tokens[i][1:-1].strip()
            i += 1
            continue
        span.append(tokens[i])
        i += 1
    if span:
        joined = " ".join(span)
        first = span[0].lower()
        copular = any(h.split()[0] in COPULAR_HEADS for h in heads)
        plural_ish = len(span) == 1 and first.endswith("s") and len(first) > 3
        if copular:
            genus_complement = joined
        elif (len(span) == 1 and first not in OBJECT_OPENERS and not plural_ish):
            genus_complement = joined
        else:
            object_np = joined

    differentiae = _segment_differentiae(tokens, lowers, i)
    return ParsedDefinition(tuple(heads), genus_complement, specified_object,
                            object_np, tuple(differentiae), negated)


def parse_sense(sense: Sense) -> Optional[ParsedDefinition]:
    """Parse a Sense record; synonym-only lines have no parse.  The parse
    is kept on the (immutable) Sense instance, as ``_parsed``, so each
    record is segmented once however many stages read it."""
    return sense._parsed
