"""The CLI's output on generated 16-copy lexicons is fixed: each command
below runs in-process on ``perfbench/lexgen.py``'s x16 lexicon for seeds 7
and 11, and the sha256 of its exit code and stdout must equal the pinned
one.  The per-run memos key some facts by object id, so this runs in CI
under two ``PYTHONHASHSEED`` values as well: no order may leak from them.

When a change alters this output on purpose, print the new hashes with
``PYTHONPATH=src:tests python tests/test_scaled_outputs.py`` and review why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from support import lexgen
from lexigraph.cli import run

COMMANDS = {
    "graph": ["graph"],
    "graph-tsv": ["--format", "tsv", "graph", "--mode", "resolved"],
    "reduce-tsv": ["reduce", "--format", "tsv"],
    "frames": ["frames", "--word", "change"],
    "ssn": ["ssn", "--word", "change"],
    "autoresolve": ["autoresolve"],
}

PINNED = {
    7: {"graph": "3963b29fcb73278611839902e880df9c6c78d8c212931a6387cd85910672ab03",
        "graph-tsv": "630a4a5803c5595e9a71795440e5ce6c64ff5a02e968251672aaaf32aebf4823",
        "reduce-tsv": "21832ab407f10f8983100e298d48940578679f263647d0644463bf44c21c3bcf",
        "frames": "31a0f673996f7bce85e557569ecd5735a5608f336c5905ec0ebca3e29be47dff",
        "ssn": "da072dd280d270539e29ac9e2403402b41fc053f625cd038ad4a81691929c7c4",
        "autoresolve": "4ceac969d5decf3219ece9d5cb8a3b3d4b7a25280b90778da0529a1c6aa6370c"},
    11: {"graph": "e9114cd31167056b4a367dcd11e2c74a937b807593b48985eeead61ac4f436d6",
         "graph-tsv": "09d266b7ae27b24e68258f5916089781ef44789e2370a13e9b243f7b4a28ad60",
         "reduce-tsv": "8303fe08e15f0cf873b42b12101043e919a244fc8ce46d0e06e59751956ba03d",
         "frames": "31a0f673996f7bce85e557569ecd5735a5608f336c5905ec0ebca3e29be47dff",
         "ssn": "da072dd280d270539e29ac9e2403402b41fc053f625cd038ad4a81691929c7c4",
         "autoresolve": "40885ec08abf4fe8c9fa46117b9504586eb470fe3a25685fa1771ea8d7ae7056"},
}


def output_hashes(seed: int) -> dict[str, str]:
    """sha256 of each command's exit code and stdout on the x16 lexicon."""
    generated = lexgen().generate(16, seed)
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_args: list[str] = []
        for i, text in enumerate(generated.texts()):
            path = Path(tmp, f"part{i}.lexf")
            path.write_text(text, encoding="utf-8")
            lexicon_args += ["--lexicon", str(path)]
        for name, argv in COMMANDS.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run([*lexicon_args, *argv])
            digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
            out[name] = digest.hexdigest()
    return out


@pytest.mark.parametrize("seed", [7, 11])
def test_x16_outputs_match_pinned_hashes(seed):
    assert output_hashes(seed) == PINNED[seed]


if __name__ == "__main__":
    for seed in (7, 11):
        print(f"    {seed}: {output_hashes(seed)!r},")
