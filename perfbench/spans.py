"""A small, self-contained span recorder.

A span is one timed call at a layer boundary. Each span holds its layer, its
name, start and end times, the index of the span that was open when it began
(its parent, -1 for none) and the id of the run that recorded it. Spans stay
in memory until the run ends and :meth:`SpanRecorder.write_jsonl` saves them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYER, NAME, START, END, PARENT = range(5)


class SpanRecorder:
    """Records properly nested spans of one thread."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[list] = []
        self._clock = clock
        self._open: list[int] = []

    def open(self, layer: str, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, name, self._clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index][END] = self._clock()

    @contextmanager
    def span(self, layer: str, name: str):
        index = self.open(layer, name)
        try:
            yield index
        finally:
            self.close(index)

    def durations(self) -> list[float]:
        return [s[END] - s[START] for s in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        out = []
        for index, s in enumerate(self.spans):
            lo, hi = s[START], s[END]
            covered = 0.0
            reach = lo
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, hi)
                if end > start:
                    covered += end - start
                    reach = end
            out.append((hi - lo) - covered)
        return out

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "layer": s[LAYER],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                        }
                    )
                    + "\n"
                )
