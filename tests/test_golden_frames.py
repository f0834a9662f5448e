"""Every frame of the bundled corpus is fixed: ``build_frames`` yields, in
its order, each frame's text dump and provenance exactly as in
``golden/frames-all.txt``.

When a change alters a frame on purpose, rewrite the file with
``PYTHONPATH=src python tests/test_golden_frames.py --update`` and review
the diff.
"""
from __future__ import annotations

import sys
from pathlib import Path

from lexigraph import corpus
from lexigraph.frames import build_frames, frame_to_text

GOLDEN = Path(__file__).parent / "golden" / "frames-all.txt"


def frames_dump() -> str:
    frames = build_frames(corpus.load_corpus(), corpus.load_rules())
    return "".join(f"== {key.render()}\n{frame_to_text(frame)}"
                   f"provenance: {' > '.join(frame.provenance)}\n"
                   for key, frame in frames.items())


def test_every_corpus_frame_matches_golden():
    assert frames_dump() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    GOLDEN.write_text(frames_dump(), encoding="utf-8")
