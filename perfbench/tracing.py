"""In-memory spans and counts for the traced benchmark run.

A span records its name, start, end, parent span and the benchmark cycle
it ran in.  Spans nest strictly (one thread, one caller), so a span's self
time is its duration minus the durations of its direct children.  Nothing
is written until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.cycle = 0
        self.spans: list[dict] = []
        self.counts: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "cycle": self.cycle,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def add(self, name: str, value: float):
        """Accumulate a count (or a derived value) for the current cycle."""
        if self.enabled:
            self.counts[name][self.cycle] += value

    def self_times(self) -> dict[str, dict[int, float]]:
        """name -> cycle -> summed self time of that name's spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        for s in self.spans:
            out[s["name"]][s["cycle"]] += (s["end"] - s["start"]
                                           - child_time[s["id"]])
        return out

    def write(self, path):
        payload = {
            "spans": self.spans,
            "counts": {name: dict(by_cycle)
                       for name, by_cycle in self.counts.items()},
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
