"""Spans that the benchmark places around its own calls into phaselab.

Nothing here reaches inside the package: a span starts just before the
benchmark calls a public phaselab function and ends when the call returns.
Work that happens inside a call (for example the Haar sampling inside
``haar_random_algorithm``) is attributed by a *replay*: the benchmark calls
the inner public function again on identical inputs, times it, and removes
that time from the traced wall, so replays never inflate the traced numbers.

Spans are kept in memory and written out when the run ends. When tracing is
off, ``call`` is a plain call and ``replay`` does nothing.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, float, float]] = []  # (name, row id, start, end)
        self.replays: list[tuple[str, int, float]] = []  # (name, row id, seconds)
        self.rows: list[tuple[int, float, float]] = []  # (row id, start, end): parent spans
        self.counts: Counter[str] = Counter()
        self.excluded_s = 0.0  # replay time, to be removed from every wall clock
        self.row = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named after the layer and function."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.row, start, perf_counter()))

    def replay(self, name: str, fn, *args, **kwargs):
        """Time ``fn`` outside the traced wall; returns its result (or None when off)."""
        if not self.enabled:
            return None
        start = perf_counter()
        out = fn(*args, **kwargs)
        seconds = perf_counter() - start
        self.replays.append((name, self.row, seconds))
        self.excluded_s += seconds
        return out

    def end_row(self, start: float) -> None:
        """Close the span of the current row, the parent of its layer spans."""
        if self.enabled:
            self.rows.append((self.row, start, perf_counter()))

    def count(self, name: str, amount: int) -> None:
        """Add to a computed work count; counts are kept even with tracing off."""
        self.counts[name] += int(amount)

    def summary(self, wall_s: float, passes: int) -> dict:
        """Per-pass calls and busy seconds per span, with share = busy / traced wall."""
        out: dict[str, dict] = {}
        for name, _, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
        for name, _, seconds in self.replays:
            entry = out.setdefault("replay." + name, {"calls": 0, "busy_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += seconds
        for entry in out.values():
            entry["calls"] //= passes
            entry["busy_s"] /= passes
            entry["share"] = entry["busy_s"] / wall_s if wall_s > 0 else 0.0
        return out

    def dump(self) -> dict:
        """Raw spans for the trace file: each row's spans share its row id."""
        return {
            "rows": [{"row": r, "start": s, "end": e} for r, s, e in self.rows],
            "spans": [
                {"name": n, "row": r, "start": s, "end": e} for n, r, s, e in self.spans
            ],
            "replays": [{"name": n, "row": r, "seconds": s} for n, r, s in self.replays],
        }
