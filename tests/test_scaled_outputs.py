"""The CLI's output on generated 16-copy lexicons is fixed: each command
below runs in-process on ``perfbench/lexgen.py``'s x16 lexicon for seeds 7
and 11, and the sha256 of its exit code and stdout must equal the pinned
one.  So is the parse path: a seeded stream of sentences through
``chunk_sentence`` and ``disambiguate``, and one ``discourse`` run over it.  The per-run memos key some facts by object id, so this runs in CI
under two ``PYTHONHASHSEED`` values as well: no order may leak from them.

When a change alters this output on purpose, print the new hashes with
``PYTHONPATH=src:tests python tests/test_scaled_outputs.py`` and review why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

import pytest

from support import lexgen
from lexigraph import corpus
from lexigraph.cli import run
from lexigraph.frames import build_frames, frame_to_text
from lexigraph.lexicon import merge_lexicons, parse_lexf
from lexigraph.parser import SentenceContext, chunk_sentence, disambiguate
from lexigraph.ssn import build_all_ssns

COMMANDS = {
    "graph": ["graph"],
    "graph-tsv": ["--format", "tsv", "graph", "--mode", "resolved"],
    "reduce-tsv": ["reduce", "--format", "tsv"],
    "frames": ["frames", "--word", "change"],
    "ssn": ["ssn", "--word", "change"],
    "autoresolve": ["autoresolve"],
}

CHANGE_SENTENCES = ("The milk changed into curd", "The moon changed",
                    "The wind changed")
SUBJECTS = ("milk", "wind", "moon", "voice", "metal", "water")
CHANGE_TAILS = ("", " into vapor", " in color", " in color or shape",
                " from hot to cold", " up", " slowly")
STREAM_BLOCKS = 50

PINNED = {
    7: {"graph": "3963b29fcb73278611839902e880df9c6c78d8c212931a6387cd85910672ab03",
        "graph-tsv": "630a4a5803c5595e9a71795440e5ce6c64ff5a02e968251672aaaf32aebf4823",
        "reduce-tsv": "21832ab407f10f8983100e298d48940578679f263647d0644463bf44c21c3bcf",
        "frames": "31a0f673996f7bce85e557569ecd5735a5608f336c5905ec0ebca3e29be47dff",
        "ssn": "da072dd280d270539e29ac9e2403402b41fc053f625cd038ad4a81691929c7c4",
        "autoresolve": "4ceac969d5decf3219ece9d5cb8a3b3d4b7a25280b90778da0529a1c6aa6370c",
        "discourse-tsv": "b9751b89312eed14e624c3a6be9c244a1b379a12eedd89b08abfbf61e6a1fe5f",
        "parse": "a1d805bc6b75ab4f07dbf18856d87ece336afc706e861d8ba1a07d80c9aadf6d"},
    11: {"graph": "e9114cd31167056b4a367dcd11e2c74a937b807593b48985eeead61ac4f436d6",
         "graph-tsv": "09d266b7ae27b24e68258f5916089781ef44789e2370a13e9b243f7b4a28ad60",
         "reduce-tsv": "8303fe08e15f0cf873b42b12101043e919a244fc8ce46d0e06e59751956ba03d",
         "frames": "31a0f673996f7bce85e557569ecd5735a5608f336c5905ec0ebca3e29be47dff",
         "ssn": "da072dd280d270539e29ac9e2403402b41fc053f625cd038ad4a81691929c7c4",
         "autoresolve": "40885ec08abf4fe8c9fa46117b9504586eb470fe3a25685fa1771ea8d7ae7056",
         "discourse-tsv": "669a5ec98d73e7412220d32fde1ba76b5e4f5d3509d83ff146fd4d514cebf7a6",
         "parse": "c30cda3b36bd3aca9c09422f425ef6dffb80622360e56bd60d6996113be3c3d0"},
}


def sentence_stream(generated, seed: int) -> list[str]:
    """Seeded blocks of eight sentences: the three change sentences, one
    more change sentence with a seeded subject and phrase, and four
    sentences of seeded single-sense copy verbs and subjects."""
    rng = random.Random(seed)
    out: list[str] = []
    for _ in range(STREAM_BLOCKS):
        block = list(CHANGE_SENTENCES)
        block.append(f"The {rng.choice(SUBJECTS)} changed"
                     f"{rng.choice(CHANGE_TAILS)}")
        for verb in rng.sample(generated.copy_verbs, 4):
            text = f"The {rng.choice(SUBJECTS)} {verb.word}"
            if rng.random() < 0.5:
                text += f" into {rng.choice(SUBJECTS)}"
            block.append(text)
        rng.shuffle(block)
        out += block
    return out


def parse_hash(texts: list[str], sentences: list[str]) -> str:
    """sha256 of every sentence's candidates, open questions, deltas and
    frame, each sentence parsed on its own."""
    rules = corpus.load_rules()
    lexicon = merge_lexicons(*(parse_lexf(t) for t in texts))
    frames = build_frames(lexicon, rules)
    networks = build_all_ssns(lexicon, frames)
    digest = hashlib.sha256()
    for text in sentences:
        chunks = chunk_sentence(text, lexicon)
        verb = SentenceContext(chunks).verb
        r = disambiguate(verb.text, chunks, networks[verb.lemma], frames,
                         rules, lexicon)
        digest.update("\n".join((
            text, " ".join(k.render() for k in r.candidates),
            " | ".join(r.open_questions),
            "; ".join(d.render() for d in r.deltas),
            frame_to_text(r.frame))).encode() + b"\n\n")
    return digest.hexdigest()


def output_hashes(seed: int) -> dict[str, str]:
    """sha256 of each command's exit code and stdout on the x16 lexicon,
    and of the parse path over a seeded sentence stream."""
    generated = lexgen().generate(16, seed)
    sentences = sentence_stream(generated, seed)
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_args: list[str] = []
        for i, text in enumerate(generated.texts()):
            path = Path(tmp, f"part{i}.lexf")
            path.write_text(text, encoding="utf-8")
            lexicon_args += ["--lexicon", str(path)]
        stream = Path(tmp, "stream.txt")
        stream.write_text("\n".join(sentences) + "\n", encoding="utf-8")
        discourse = ["discourse", "--format", "tsv", "--file", str(stream)]
        for name, argv in {**COMMANDS, "discourse-tsv": discourse}.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run([*lexicon_args, *argv])
            digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
            out[name] = digest.hexdigest()
    out["parse"] = parse_hash(generated.texts(), sentences)
    return out


@pytest.mark.parametrize("seed", [7, 11])
def test_x16_outputs_match_pinned_hashes(seed):
    assert output_hashes(seed) == PINNED[seed]


if __name__ == "__main__":
    for seed in (7, 11):
        print(f"    {seed}: {output_hashes(seed)!r},")
