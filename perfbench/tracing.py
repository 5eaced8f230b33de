"""In-memory spans around calls into pacmap's layers, recorded from outside.

The solvers accept any object with ``num_query``, ``sample`` and
``log_prob_rows``, so a pass-through proxy can time the oracle layer without
touching ``src/``.  Spans live in a list until the run ends; a layer's self
time is its span durations minus the part covered by child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span fields: solve id, parent span index (-1 for a root), name, start, end, rows.
SOLVE, PARENT, NAME, START, END, ROWS = range(6)


class Tracer:
    """Records nested spans; every span belongs to the solve that is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.solve_id = -1

    @contextmanager
    def span(self, name: str, rows: int = 0):
        rec = [self.solve_id, self._open[-1] if self._open else -1, name, 0.0, 0.0, rows]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._open.pop()

    @contextmanager
    def solve(self, solve_id: int):
        """Root span of one solve; everything a layer does not cover is its self time."""
        self.solve_id = solve_id
        with self.span("solve") as rec:
            yield rec

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["solve", "parent", "name", "start", "end", "rows"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class TimedOracle:
    """Pass-through oracle that records a span around each sample and scoring call.

    A ``log_prob_rows`` call on the very array the last ``sample`` returned is
    draw scoring (``inference.score``); any other call scores rows the solver
    built itself, i.e. Hamming balls and warm starts (``exploit.score``).
    """

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer
        self._last_draws = None
        self.num_query = oracle.num_query

    def sample(self, count, rng):
        with self._tracer.span("inference.sample", count):
            draws = self._oracle.sample(count, rng)
        self._last_draws = draws
        return draws

    def log_prob_rows(self, rows):
        name = "inference.score" if rows is self._last_draws else "exploit.score"
        self._last_draws = None
        with self._tracer.span(name, np.atleast_2d(rows).shape[0]):
            return self._oracle.log_prob_rows(rows)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, rows, total duration and self time (seconds)."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
    for i, rec in enumerate(spans):
        agg = out[rec[NAME]]
        dur = rec[END] - rec[START]
        agg["calls"] += 1
        agg["rows"] += rec[ROWS]
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time[i]
    return dict(out)
