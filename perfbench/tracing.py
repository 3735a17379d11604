"""In-memory spans recorded around the benchmark's own calls into truncvote.

A span is (name, start, end, parent index, trace id). Spans stay in memory
and are written out once, when the run ends. A span's self time is its
duration minus the durations of its direct children; children never
overlap because the traced loop is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._trace_id = 0

    def new_trace(self) -> None:
        """Start a new trace id: spans of one trial or one cell share it."""
        self._trace_id += 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self._trace_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return dict(totals)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "trace": t}
            for n, s, e, p, t in self.spans
        ]
        payload["counts"] = dict(self.counts)
        path.write_text(json.dumps(payload), encoding="utf-8")
