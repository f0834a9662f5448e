"""Value semantics of the exported value types: fields cannot be assigned,
an equal copy is equal and hashes alike, a record's source ``line`` takes
no part in equality, each type prints as it always has, and a type that
defines ``__new__`` builds through it under ``_make`` and ``_replace``."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import lexigraph
from lexigraph.autoresolve import AutoResolution
from lexigraph.defgraph import (
    Arc,
    Condensation,
    DefinitionGraph,
    External,
    PrimitiveReport,
)
from lexigraph.frames import (
    Descriptor,
    Frame,
    Slot,
    UseDelta,
    _match_facts,
)
from lexigraph.lexicon import (
    Lexicon,
    ParsedDefinition,
    PartOfSpeech,
    Phrase,
    ResolutionRecord,
    Sense,
    SenseKey,
    SenseLabel,
)
from lexigraph.manifest import FixtureManifest, VerifyReport, VerifyRow
from lexigraph.parser import Chunk, DisambiguationResult
from lexigraph.reduction import NonprimitiveEvidence, ReductionReport
from lexigraph.ssn import SSN, Nonterminal, Question, Terminal, TraverseResult

VI = PartOfSpeech.VI
KEY = SenseKey("turn", VI, 1, "1a")
TARGET = SenseKey("change", VI, 1, "2")


def _frame():
    return Frame("BECOME-DIFFERENT", VI, (("NE", "SUBJ", "TO-STATE"),),
                 (Slot("SUBJ", ("PAT",), None, Descriptor("v1")),), False,
                 KEY, ("seeded",))


def _delta():
    return UseDelta("FILL", ("TO-STATE",), "curd")


# (type, factory of a sample, the field assigned, whether the sample takes
# a ``line``, the sample's repr); a factory that takes a line builds the
# sample with that line
SAMPLES = [
    (SenseLabel, lambda: SenseLabel("1b(2)"), "text", False,
     "SenseLabel(text='1b(2)')"),
    (SenseKey, lambda: SenseKey("turn", VI, 1, "1a"), "label", False,
     "SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, homograph=1, "
     "label='1a')"),
    (Sense, lambda line=4: Sense("turn", VI, 1, SenseLabel("1a"),
                                 frozenset({"obs"}), "to change", "used with into",
                                 (), line), "raw_definition", True,
     "Sense(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, homograph=1, "
     "label=SenseLabel(text='1a'), status=frozenset({'obs'}), "
     "raw_definition='to change', usage_note='used with into', "
     "synonym_refs=(), line=4)"),
    (Phrase, lambda: Phrase("prep-phrase", "curd", "into"), "text", False,
     "Phrase(kind='prep-phrase', text='curd', prep='into', hedged=False)"),
    (ParsedDefinition,
     lambda: ParsedDefinition(("change",), differentiae=(Phrase("adverb", "slowly"),)),
     "genus", False,
     "ParsedDefinition(genus=('change',), genus_complement=None, "
     "specified_object=None, object_np=None, "
     "differentiae=(Phrase(kind='adverb', text='slowly', prep=None, hedged=False),), "
     "negated=False)"),
    (ResolutionRecord, lambda line=7: ResolutionRecord(KEY, "change", TARGET, line),
     "target", True,
     "ResolutionRecord(from_key=SenseKey(headword='turn', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='1a'), "
     "genus_word='change', target=SenseKey(headword='change', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='2'), line=7)"),
    (Lexicon, lambda: Lexicon((), {}, ()), "entries", False,
     "Lexicon(entries=(), seed_frames={}, resolutions=())"),
    (External, lambda: External("alter"), "headword", False,
     "External(headword='alter')"),
    (Arc, lambda line=9: Arc(KEY, "change", frozenset({TARGET}), True, False,
                             line), "targets", True,
     "Arc(source=SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='1a'), genus_word='change', "
     "targets=frozenset({SenseKey(headword='change', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='2')}), resolved=True, "
     "negated=False, line=9)"),
    (DefinitionGraph, lambda: DefinitionGraph(frozenset({External("alter")}), ()),
     "arcs", False,
     "DefinitionGraph(nodes=frozenset({External(headword='alter')}), arcs=())"),
    (Condensation, lambda: Condensation(((External("alter"),),), ((0, 0),)),
     "arcs", False,
     "Condensation(components=((External(headword='alter'),),), arcs=((0, 0),))"),
    (PrimitiveReport, lambda: PrimitiveReport(((TARGET,),), (External("alter"),)),
     "candidates", False,
     "PrimitiveReport(candidates=((SenseKey(headword='change', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='2'),),), "
     "undefined_leaves=(External(headword='alter'),))"),
    (Descriptor, lambda: Descriptor("obj1", ("contextual object",)), "var", False,
     "Descriptor(var='obj1', features=('contextual object',))"),
    (Slot, lambda: Slot("TO-STATE", (), "SUBJ", "curd", ("liquid",)), "filler",
     False,
     "Slot(name='TO-STATE', case=(), bind='SUBJ', filler='curd', "
     "restrictions=('liquid',), children=())"),
    (Frame, _frame, "slots", False,
     "Frame(predicate='BECOME-DIFFERENT', pos=<PartOfSpeech.VI: 'vi'>, "
     "conditions=(('NE', 'SUBJ', 'TO-STATE'),), slots=(Slot(name='SUBJ', "
     "case=('PAT',), bind=None, filler=Descriptor(var='v1', features=()), "
     "restrictions=(), children=()),), provisional=False, "
     "sense=SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='1a'), provenance=('seeded',))"),
    (UseDelta, _delta, "value", False,
     "UseDelta(kind='FILL', path=('TO-STATE',), value='curd')"),
    (Chunk, lambda: Chunk("verb", "changed", None, "change"), "lemma", False,
     "Chunk(kind='verb', text='changed', prep=None, lemma='change')"),
    (DisambiguationResult,
     lambda: DisambiguationResult("changed", "change", (KEY,), Frame("MOVE", VI),
                                  ("POS",), (_delta(),)),
     "candidates", False,
     "DisambiguationResult(word='changed', lemma='change', "
     "candidates=(SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='1a'),), frame=Frame(predicate='MOVE', "
     "pos=<PartOfSpeech.VI: 'vi'>, conditions=(), slots=(), provisional=False, "
     "sense=None, provenance=()), open_questions=('POS',), "
     "deltas=(UseDelta(kind='FILL', path=('TO-STATE',), value='curd'),))"),
    (AutoResolution, lambda: AutoResolution(KEY, "change", None, (TARGET,), "why"),
     "unique", False,
     "AutoResolution(using=SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='1a'), genus_word='change', unique=None, "
     "candidates=(SenseKey(headword='change', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='2'),), rationale='why')"),
    (NonprimitiveEvidence, lambda: NonprimitiveEvidence(KEY, "SLOT-FILL", "into"),
     "rule", False,
     "NonprimitiveEvidence(sense=SenseKey(headword='turn', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='1a'), rule='SLOT-FILL', "
     "detail='into')"),
    (ReductionReport, lambda: ReductionReport(2, (), (TARGET,), 1), "iterations",
     False,
     "ReductionReport(initial=2, set_aside=(), remaining=(SenseKey("
     "headword='change', pos=<PartOfSpeech.VI: 'vi'>, homograph=1, "
     "label='2'),), iterations=1)"),
    (Terminal, lambda: Terminal(KEY), "sense", False,
     "Terminal(sense=SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='1a'))"),
    (Nonterminal, lambda: Nonterminal(TARGET, (KEY,)), "members", False,
     "Nonterminal(sense=SenseKey(headword='change', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='2'), members=(SenseKey(headword='turn', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='1a'),))"),
    (Question, lambda: Question("USAGE", ("into",), (("absent", Nonterminal(KEY, ())),)),
     "branches", False,
     "Question(kind='USAGE', payload=('into',), branches=(('absent', "
     "Nonterminal(sense=SenseKey(headword='turn', pos=<PartOfSpeech.VI: 'vi'>, "
     "homograph=1, label='1a'), members=())),))"),
    (SSN, lambda: SSN("turn", (KEY,), Nonterminal(KEY, ())), "root", False,
     "SSN(headword='turn', senses=(SenseKey(headword='turn', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='1a'),), "
     "root=Nonterminal(sense=SenseKey(headword='turn', "
     "pos=<PartOfSpeech.VI: 'vi'>, homograph=1, label='1a'), members=()))"),
    (TraverseResult, lambda: TraverseResult((KEY,), True, ()), "terminal", False,
     "TraverseResult(senses=(SenseKey(headword='turn', pos=<PartOfSpeech.VI: "
     "'vi'>, homograph=1, label='1a'),), terminal=True, open_questions=())"),
    (FixtureManifest, lambda: FixtureManifest({"a": 1}, {"a": "one"}), "values",
     False, "FixtureManifest(values={'a': 1}, derivations={'a': 'one'})"),
    (VerifyRow, lambda: VerifyRow("a", 1, None), "actual", False,
     "VerifyRow(key='a', expected=1, actual=None)"),
    (VerifyReport, lambda: VerifyReport((VerifyRow("a", 1, 1),)), "rows", False,
     "VerifyReport(rows=(VerifyRow(key='a', expected=1, actual=1),))"),
]
IDS = [entry[0].__name__ for entry in SAMPLES]

# each type's ``_fields`` and ``_field_defaults``, as a space-separated
# string and a dict
FIELDS = {
    SenseLabel: ("text", {}),
    SenseKey: ("headword pos homograph label", {}),
    Sense: ("headword pos homograph label status raw_definition usage_note "
            "synonym_refs line",
            {"status": frozenset(), "raw_definition": "", "usage_note": None,
             "synonym_refs": (), "line": 0}),
    Phrase: ("kind text prep hedged", {"prep": None, "hedged": False}),
    ParsedDefinition: ("genus genus_complement specified_object object_np "
                       "differentiae negated",
                       {"genus_complement": None, "specified_object": None,
                        "object_np": None, "differentiae": (),
                        "negated": False}),
    ResolutionRecord: ("from_key genus_word target line", {"line": 0}),
    Lexicon: ("entries seed_frames resolutions", {}),
    External: ("headword", {}),
    Arc: ("source genus_word targets resolved negated line",
          {"resolved": False, "negated": False, "line": 0}),
    DefinitionGraph: ("nodes arcs", {}),
    Condensation: ("components arcs", {}),
    PrimitiveReport: ("candidates undefined_leaves", {}),
    Descriptor: ("var features", {"features": ()}),
    Slot: ("name case bind filler restrictions children",
           {"case": (), "bind": None, "filler": None, "restrictions": (),
            "children": ()}),
    Frame: ("predicate pos conditions slots provisional sense provenance",
            {"conditions": (), "slots": (), "provisional": False,
             "sense": None, "provenance": ()}),
    UseDelta: ("kind path value", {}),
    Chunk: ("kind text prep lemma", {"prep": None, "lemma": None}),
    DisambiguationResult: ("word lemma candidates frame open_questions deltas",
                           {"deltas": ()}),
    AutoResolution: ("using genus_word unique candidates rationale", {}),
    NonprimitiveEvidence: ("sense rule detail", {}),
    ReductionReport: ("initial set_aside remaining iterations", {}),
    Terminal: ("sense", {}),
    Nonterminal: ("sense members", {}),
    Question: ("kind payload branches", {}),
    SSN: ("headword senses root", {}),
    TraverseResult: ("senses terminal open_questions", {}),
    FixtureManifest: ("values derivations", {}),
    VerifyRow: ("key expected actual", {}),
    VerifyReport: ("rows", {}),
}
# the types that keep memos of derived facts in an instance ``__dict__``
MEMO_TYPES = {Sense, Lexicon, Frame, DefinitionGraph, Question}


def _hash(value):
    """The value's hash, or the name of the error hashing it raises: a type
    holding a dict is unhashable, as it has always been."""
    try:
        return hash(value)
    except TypeError:
        return "TypeError"


@pytest.mark.parametrize("cls,make,field,_,__", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(cls, make, field, _, __):
    sample = make()
    assert type(sample) is cls
    before = getattr(sample, field)
    with pytest.raises(AttributeError):
        setattr(sample, field, None)
    assert getattr(sample, field) == before


@pytest.mark.parametrize("cls,make,_,__,___", SAMPLES, ids=IDS)
def test_equal_copies_compare_and_hash_alike(cls, make, _, __, ___):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert _hash(a) == _hash(b)


@pytest.mark.parametrize("cls,make,_,takes_line,__",
                         [s for s in SAMPLES if s[3]],
                         ids=[i for i, s in zip(IDS, SAMPLES) if s[3]])
def test_line_takes_no_part_in_equality(cls, make, _, takes_line, __):
    a, b = make(line=1), make(line=2)
    assert a.line != b.line
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls,make,_,__,text", SAMPLES, ids=IDS)
def test_repr_is_unchanged(cls, make, _, __, text):
    assert repr(make()) == text


def test_every_value_type_is_pinned():
    assert set(FIELDS) == {entry[0] for entry in SAMPLES}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_unchanged(cls):
    fields, defaults = FIELDS[cls]
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults


@pytest.mark.parametrize("cls,make,_,__,___", SAMPLES, ids=IDS)
def test_only_the_memo_types_have_an_instance_dict(cls, make, _, __, ___):
    assert hasattr(make(), "__dict__") == (cls in MEMO_TYPES)


def test_sense_label_orders_by_text():
    labels = [SenseLabel(t) for t in ("2", "1b", "1b(2)", "10")]
    assert sorted(labels) == [SenseLabel(t) for t in ("10", "1b", "1b(2)", "2")]
    assert SenseLabel("1a") < SenseLabel("1b") <= SenseLabel("1b")


@pytest.mark.parametrize("build", [
    lambda: SenseLabel("1b)"),
    lambda: SenseLabel._make(["b"]),
    lambda: SenseLabel("1b")._replace(text="b1"),
    lambda: SenseLabel("1b")._replace(text="x"),
    lambda: SenseLabel("1b\n"),
    lambda: SenseLabel("1\u0661"),
    lambda: Phrase("adverb", "slowly", "into"),
    lambda: Phrase._make(["prep-phrase", "curd", None, False]),
    lambda: Phrase("prep-phrase", "curd", "into")._replace(prep=None),
], ids=["label", "label-make", "label-replace", "label-replace-x",
        "label-final-newline", "label-other-digit", "phrase", "phrase-make",
        "phrase-replace"])
def test_every_construction_is_checked(build):
    with pytest.raises(ValueError):
        build()


def test_replace_keeps_the_type_and_drops_memos():
    frame = _frame()
    facts = _match_facts(frame)
    assert vars(frame)["_match_facts"] is facts
    moved = frame._replace(slots=(Slot("SUBJ", filler="ice"),))
    assert type(moved) is Frame and "_match_facts" not in vars(moved)
    assert _match_facts(moved) != facts
    sense = SAMPLES[2][1]()
    assert sense.key == KEY
    other = sense._replace(headword="change")
    assert type(other) is Sense and other.key.headword == "change"


def _defines_new(cls: type) -> bool:
    """Whether a namedtuple class defines ``__new__`` itself: a class
    that namedtuple made holds its ``_fields`` and its own ``__new__``."""
    return (issubclass(cls, tuple) and hasattr(cls, "_fields")
            and "_fields" not in vars(cls) and "__new__" in vars(cls))


def _types_with_a_new() -> set[type]:
    """Every namedtuple class of ``lexigraph`` that defines ``__new__``."""
    found = set()
    for info in pkgutil.iter_modules(lexigraph.__path__):
        module = importlib.import_module(f"lexigraph.{info.name}")
        found |= {value for value in vars(module).values()
                  if isinstance(value, type) and _defines_new(value)}
    return found


NEW_SAMPLES = [entry for entry in SAMPLES if _defines_new(entry[0])]


def test_each_type_with_a_new_is_sampled():
    assert _types_with_a_new() == {entry[0] for entry in NEW_SAMPLES}


@pytest.mark.parametrize("cls,make,field,_,__", NEW_SAMPLES,
                         ids=[entry[0].__name__ for entry in NEW_SAMPLES])
def test_make_and_replace_construct_through_new(monkeypatch, cls, make,
                                                field, _, __):
    """namedtuple's ``_make``, which ``_replace`` calls, builds with
    ``tuple.__new__``; a type that checks or derives in ``__new__``
    routes ``_make`` through it."""
    sample = make()
    new = vars(cls)["__new__"]
    made = []

    def counted(*args, **kwargs):
        made.append(args[0])
        return new(*args, **kwargs)

    monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    assert cls._make(sample) == sample
    assert sample._replace(**{field: getattr(sample, field)}) == sample
    assert made == [cls, cls]


def test_lexicon_keeps_its_rule_under_replace():
    assert Lexicon()._replace(seed_frames=None).seed_frames == {}
    assert Lexicon._make(((), None, ())).seed_frames == {}
