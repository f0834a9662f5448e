"""No stage leaves cyclic garbage: with the cycle collector off, whatever a
stage allocates and drops is freed by reference counting alone, so a full
collection afterwards finds nothing unreachable.

Each case covers a successful call only: an exception raised and caught
legitimately leaves a cycle between its traceback and the frames on it.

A stream of parses keeps nothing in the parse path's modules, a frame keeps
a fill plan per edit shape it meets, and a frame that holds its fill plans
is freed by reference counting alone.
"""
from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from support import analysable, lexf_texts, lexgen
from test_scaled_outputs import sentence_stream
from lexigraph import corpus
from lexigraph import frames as frames_mod, parser as parser_mod, ssn as ssn_mod
from lexigraph.autoresolve import autoresolve_all
from lexigraph.defgraph import (
    apply_resolutions,
    build_graph,
    condensation,
    primitive_candidates,
    strongly_connected_components,
)
from lexigraph.frames import build_frames, frame_to_text
from lexigraph.lexicon import merge_lexicons, parse_lexf
from lexigraph.parser import (
    SentenceContext,
    VarAllocator,
    chunk_sentence,
    disambiguate,
)
from lexigraph.reduction import reduce_fixpoint
from lexigraph.ssn import (
    build_all_ssns,
    compile_ssn,
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
        compile_ssn(headword, lexicon, frames)
    autoresolve_all(lexicon, frames, rules)


@settings(max_examples=40, deadline=None)
@given(lexf_texts())
def test_generated_analysis_leaves_no_cyclic_garbage(rules, text):
    assert garbage_left(analyse, *analysable(text, rules), rules) == 0


def module_containers() -> dict:
    """The size of the namespace of the parser, frames and ssn modules and
    of every dict, set and list they hold."""
    sizes = {}
    for module in (parser_mod, frames_mod, ssn_mod):
        sizes[module.__name__] = len(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, (dict, set, list)):
                sizes[module.__name__, name] = len(value)
    return sizes


class Sentinel:
    pass


def test_parse_stream_keeps_nothing_and_frees_planned_frames(rules):
    generated = lexgen().generate(16, 1)
    lexicon = merge_lexicons(*(parse_lexf(t) for t in generated.texts()))
    frames = build_frames(lexicon, rules)
    networks = build_all_ssns(lexicon, frames)
    before = module_containers()
    # 2,000 sentences: the seeded x16 stream of the scaled-output pins, for
    # five seeds
    sentences = [text for seed in range(1, 6)
                 for text in sentence_stream(generated, seed)]
    assert len(sentences) == 2000

    def parse_stream() -> dict:
        """Parse every sentence; per frame reached, the number of plans it
        keeps and of the phrase structures (the kind and preposition of
        each prep-phrase and adverb chunk, not its text) it met."""
        met: dict = {}
        for text in sentences:
            chunks = chunk_sentence(text, lexicon)
            ctx = SentenceContext(chunks)
            result = disambiguate(ctx.verb.text, chunks,
                                  networks[ctx.verb.lemma], frames, rules,
                                  lexicon, VarAllocator())
            met.setdefault(result.candidates[0], set()).add(
                tuple((c.kind, c.prep) for c in ctx.differentiae))
        return {k: (len(vars(frames[k])["_fill_plans"]), len(structures))
                for k, structures in met.items()}

    kept = parse_stream()
    # a phrase structure makes one edit shape on a frame, whatever the text
    # of its phrases: no frame keeps more plans than it met structures, and
    # some frame keeps the plan of an edited tree beside its own
    assert all(plans <= structures for plans, structures in kept.values())
    assert max(plans for plans, _ in kept.values()) > 1
    # a second pass meets no new edit shape, so no store grows
    assert parse_stream() == kept
    assert module_containers() == before
    # a frame holding plans is freed with the analysis, with the cycle
    # collector off
    key = min(k for k, (plans, _) in kept.items() if plans > 1)
    sentinel = Sentinel()
    alive = weakref.ref(sentinel)
    vars(frames[key])["sentinel"] = sentinel
    gc.collect()
    gc.disable()
    try:
        del sentinel, frames, networks, lexicon
        assert alive() is None
    finally:
        gc.enable()
