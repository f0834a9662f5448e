"""Spans recorded in memory around calls into lexigraph's layers.

A span is (name, start, end, parent span, operation id).  A span opened
with no span open starts a new operation.  Nothing is written until the
run ends.  Untraced runs use ``NULL``, whose spans cost one shared
``nullcontext``.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self._open: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str):
        if not self._open:
            self._op += 1
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, seconds: float) -> None:
        """A finished root span measured elsewhere (e.g. in a child process)."""
        end = time.perf_counter()
        self._op += 1
        self.spans.append([name, end - seconds, end, -1, self._op])

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, its self time (duration minus time covered by its
        child spans) summed within each operation, one value per operation."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_op: dict[tuple[str, int], float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            per_op[name, op] = per_op.get((name, op), 0.0) + (end - start) - child_time[i]
        out: dict[str, list[float]] = {}
        for (name, _), seconds in per_op.items():
            out.setdefault(name, []).append(seconds)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class _NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL = _NullTracer()
