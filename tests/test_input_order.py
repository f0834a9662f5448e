"""The order of LEXF blocks is no part of what a lexicon says: every golden
command, run on the bundled corpus and resolutions with their entry blocks
and R records shuffled, writes its golden stdout byte for byte, and a
generated lexicon's headword index, senses and networks are those of the
lexicon with its blocks shuffled."""
from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from support import accepted, lexf_texts, lexgen
from test_golden_cli import GOLDEN, golden_commands
from lexigraph import corpus
from lexigraph.cli import run
from lexigraph.frames import build_frames
from lexigraph.lexicon import PartOfSpeech, parse_lexf, senses_of
from lexigraph.ssn import CompileError, compile_ssn, to_text

FILES = ("change_corpus.lexf", "resolutions.lexf")


@settings(max_examples=4, deadline=None)
@given(st.randoms(use_true_random=False))
def test_golden_output_ignores_block_order(rng: random.Random):
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_args: list[str] = []
        for name in FILES:
            # entry blocks and lone R lines, as the generator reads them
            shuffled = lexgen()._blocks(corpus._read(name))
            rng.shuffle(shuffled)
            path = Path(tmp, name)
            path.write_text("".join(line + "\n" for block in shuffled
                                    for line in block), encoding="utf-8")
            lexicon_args += ["--lexicon", str(path)]
        for stem, code, argv in golden_commands():
            argv = [str(GOLDEN / a) if a == "story.txt" else a for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got = run([*lexicon_args, *argv])
            assert (got, out.getvalue()) == (
                code, (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")), argv


def _networks(lexicon, rules) -> dict[str, str]:
    """Each headword's network as text, or the reason it does not compile."""
    frames = build_frames(lexicon, rules)
    out = {}
    for headword in lexicon.headwords():
        try:
            out[headword] = to_text(compile_ssn(headword, lexicon, frames))
        except CompileError as exc:
            out[headword] = f"CompileError: {exc}"
    return out


@settings(max_examples=60, deadline=None)
@given(lexf_texts(), st.randoms(use_true_random=False))
def test_headword_index_ignores_block_order(rules, text, rng: random.Random):
    text = accepted(text)
    shuffled = lexgen()._blocks(text)
    rng.shuffle(shuffled)
    lx = parse_lexf(text)
    moved = parse_lexf("".join(line + "\n" for block in shuffled
                               for line in block))
    assert list(moved._by_headword.items()) == list(lx._by_headword.items())
    assert moved.headwords() == lx.headwords()
    for word in lx.headwords():
        for pos in (None, *PartOfSpeech):
            assert senses_of(moved, word, pos) == senses_of(lx, word, pos)
    assert list(_networks(moved, rules).items()) == list(
        _networks(lx, rules).items())
