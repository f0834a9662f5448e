"""No stage leaves cyclic garbage: with the cycle collector off, whatever a
stage allocates and drops is freed by reference counting alone, so a full
collection afterwards finds nothing unreachable.

Each case covers a successful call only: an exception raised and caught
legitimately leaves a cycle between its traceback and the frames on it.
"""
from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from support import lexf_texts
from lexigraph import corpus
from lexigraph.defgraph import (
    apply_resolutions,
    build_graph,
    condensation,
    primitive_candidates,
    strongly_connected_components,
)
from lexigraph.frames import build_frames, frame_to_text
from lexigraph.lexicon import ResolutionError, parse_lexf
from lexigraph.parser import (
    SentenceContext,
    VarAllocator,
    autoresolve_all,
    chunk_sentence,
    disambiguate,
)
from lexigraph.reduction import reduce_fixpoint
from lexigraph.ssn import (
    CompileError,
    build_all_ssns,
    compile_ssn,
    oracle_reaching,
    to_dot,
    to_text,
)


def garbage_left(call, *args) -> int:
    """The unreachable objects a full collection finds once ``call(*args)``
    has run with the cycle collector off and its result is dropped."""
    gc.collect()
    gc.disable()
    try:
        call(*args)
    finally:
        gc.enable()
    return gc.collect()


def components(graph):
    return (strongly_connected_components(graph, "resolved-only"),
            condensation(graph, "resolved-only"), primitive_candidates(graph))


def corpus_inputs() -> SimpleNamespace:
    """A fresh analysis of the bundled corpus up to the frames: the inputs
    of every stage, with no graph component computed yet."""
    a = SimpleNamespace(lexicon=corpus.load_corpus(), rules=corpus.load_rules())
    a.resolved = apply_resolutions(build_graph(a.lexicon), a.lexicon.resolutions)
    a.frames = build_frames(a.lexicon, a.rules)
    return a


CORPUS_STAGES = {
    "parse_lexf": lambda a: corpus.load_corpus(),
    "build_graph": lambda a: build_graph(a.lexicon),
    "apply_resolutions": lambda a: apply_resolutions(build_graph(a.lexicon),
                                                     a.lexicon.resolutions),
    "components": lambda a: components(a.resolved),
    "build_frames": lambda a: build_frames(a.lexicon, a.rules),
    "reduce_fixpoint": lambda a: reduce_fixpoint(a.lexicon, a.resolved,
                                                 a.frames, a.rules),
    "build_all_ssns": lambda a: build_all_ssns(a.lexicon, a.frames),
    "autoresolve_all": lambda a: autoresolve_all(a.lexicon, a.frames, a.rules),
}


@pytest.mark.parametrize("stage", list(CORPUS_STAGES))
def test_corpus_stage_leaves_no_cyclic_garbage(stage):
    assert garbage_left(CORPUS_STAGES[stage], corpus_inputs()) == 0


CHANGE_SENTENCES = ("The milk changed into curd", "The moon changed",
                    "The wind changed")


@pytest.mark.parametrize("text", CHANGE_SENTENCES)
def test_chunk_sentence_leaves_no_cyclic_garbage(lexicon, text):
    assert garbage_left(chunk_sentence, text, lexicon) == 0


@pytest.mark.parametrize("text", CHANGE_SENTENCES)
def test_disambiguate_leaves_no_cyclic_garbage(lexicon, ssns, frames, rules,
                                               text):
    chunks = chunk_sentence(text, lexicon)
    verb = SentenceContext(chunks).verb
    assert garbage_left(disambiguate, verb.text, chunks, ssns[verb.lemma],
                        frames, rules, lexicon, VarAllocator()) == 0


EXPORTS = {
    "ssn.to_text": lambda net, frames: to_text(net),
    "ssn.to_dot": lambda net, frames: to_dot(net),
    "SSN.questions": lambda net, frames: net.questions(),
    "oracle_reaching": lambda net, frames: [oracle_reaching(net, k)
                                            for k in net.senses],
    "frame_to_text": lambda net, frames: [frame_to_text(f)
                                          for f in frames.values()],
}


@pytest.mark.parametrize("export", list(EXPORTS))
def test_export_leaves_no_cyclic_garbage(change_ssn, frames, export):
    assert garbage_left(EXPORTS[export], change_ssn, frames) == 0


def analyse(text: str, headwords: list[str], rules) -> None:
    """A full analysis of ``text``, as in ``CORPUS_STAGES``, with the
    networks of ``headwords``."""
    lexicon = parse_lexf(text)
    resolved = apply_resolutions(build_graph(lexicon), lexicon.resolutions)
    components(resolved)
    frames = build_frames(lexicon, rules)
    reduce_fixpoint(lexicon, resolved, frames, rules)
    for headword in headwords:
        compile_ssn(headword, lexicon.records_by_key(headword), frames)
    autoresolve_all(lexicon, frames, rules)


def analysable(text: str, rules) -> tuple[str, list[str]]:
    """``text`` without the R records that ``apply_resolutions`` rejects,
    and the headwords whose network then compiles: ``analyse`` succeeds on
    both."""
    graph = build_graph(parse_lexf(text))
    kept = []
    for line in text.splitlines():
        if line.startswith("R|"):
            try:
                apply_resolutions(graph, parse_lexf(line).resolutions)
            except ResolutionError:
                continue
        kept.append(line)
    text = "\n".join(kept) + "\n"
    lexicon = parse_lexf(text)
    frames = build_frames(lexicon, rules)
    headwords = []
    for headword in lexicon.headwords():
        try:
            compile_ssn(headword, lexicon.records_by_key(headword), frames)
        except CompileError:
            continue
        headwords.append(headword)
    return text, headwords


@settings(max_examples=40, deadline=None)
@given(lexf_texts())
def test_generated_analysis_leaves_no_cyclic_garbage(rules, text):
    assert garbage_left(analyse, *analysable(text, rules), rules) == 0
