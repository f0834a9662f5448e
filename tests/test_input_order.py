"""The order of LEXF blocks is no part of what a lexicon says: every golden
command, run on the bundled corpus and resolutions with their entry blocks
and R records shuffled, writes its golden stdout byte for byte."""
from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from support import lexgen
from test_golden_cli import GOLDEN, golden_commands
from lexigraph import corpus
from lexigraph.cli import run

FILES = ("change_corpus.lexf", "resolutions.lexf")


@settings(max_examples=4, deadline=None)
@given(st.randoms(use_true_random=False))
def test_golden_output_ignores_block_order(rng: random.Random):
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_args: list[str] = []
        for name in FILES:
            # entry blocks and lone R lines, as the generator reads them
            shuffled = lexgen()._blocks(corpus.corpus_text(name))
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
