"""Host speed, measured by a fixed reference workload timed between solves.

The benchmark's host is shared: its CPU runs up to about 1.5-2x slower for
seconds to minutes at a time while other tenants are busy, and no run length
averages that out.  So every timing the benchmark reports is rescaled to a
reference host speed: a small fixed workload that shares no code with pacmap
(a layered log-sum-exp circuit pass over a row batch, Bernoulli sampling, row
dedup and a pure-Python keyed count, the kinds of work pacmap's layers do) is
timed about every ``EVERY_S`` seconds, and a stretch of solve time is divided
by the local slowdown, the median time of the ``NEAREST`` nearest reference
runs over ``REFERENCE_S``.  A change to pacmap moves the rescaled times as it
moves the raw ones; a change in host speed mostly cancels.

The reference workload runs in a helper process, one request at a time while
the benchmark waits, so that its memory never counts in the benchmark's peak
and its allocations never change the allocator state pacmap runs with.
Run directly, this module is that helper: it answers each line on stdin with
the seconds one reference run took.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# The reference workload's median time (seconds) on a 2-vCPU virtualised Intel
# Xeon at 2.1 GHz with Python 3.11 and numpy 2.4: rescaled times read as
# seconds on that machine at its usual speed.
REFERENCE_S = 0.0150
EVERY_S = 0.5
NEAREST = 5

_ROWS, _WIDTH, _LAYERS = 1000, 64, 6


def _fixed_inputs():
    gen = np.random.default_rng(20260118)
    return {
        "leaves": np.log(gen.uniform(0.05, 0.95, (_ROWS, _WIDTH))),
        "children": gen.integers(0, _WIDTH, (_LAYERS, _WIDTH, 2)),
        "weights": np.log(gen.dirichlet((1.0, 1.0), (_LAYERS, _WIDTH))),
        "theta": gen.uniform(0.1, 0.9, _WIDTH),
    }


def reference_workload(inputs) -> float:
    """One fixed unit of work; returns a checksum so that nothing is skipped."""
    x = inputs["leaves"]
    for layer in range(_LAYERS):
        a, b = inputs["children"][layer].T
        w = inputs["weights"][layer]
        if layer % 2:
            x = x[:, a] + x[:, b]
        else:
            x = np.logaddexp(x[:, a] + w[:, 0], x[:, b] + w[:, 1])
    gen = np.random.default_rng(7)
    bits = (gen.random((2000, _WIDTH)) < inputs["theta"]).astype(np.uint8)
    distinct = np.unique(bits[:, :16], axis=0)
    counts: dict[bytes, int] = {}
    for row in bits[:, :12]:
        key = row.tobytes()
        counts[key] = counts.get(key, 0) + 1
    return float(x.sum()) + len(distinct) + max(counts.values())


class HostSpeed:
    """Reference runs (midpoint, seconds) over a run, and the slowdown they imply.

    Owns the helper process; use it as a context manager so that the helper
    is stopped and waited for on every way out.
    """

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the helper (EOF on its stdin) and wait for it; kill it if it hangs."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def measure(self) -> None:
        t0 = perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        t1 = perf_counter()
        if not reply:
            raise RuntimeError(f"host reference process ended with exit code {self._proc.wait()}")
        self.mids.append((t0 + t1) / 2)
        self.times.append(float(reply))

    def measure_when_due(self) -> None:
        if not self.mids or perf_counter() - self.mids[-1] >= EVERY_S:
            self.measure()

    def slowdown(self, t: float) -> float:
        """Host slowdown at time `t` against the reference speed (1.0 = reference)."""
        if not self.times:
            raise ValueError("no reference runs recorded")
        i = bisect.bisect_left(self.mids, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.times[lo : lo + NEAREST]) / REFERENCE_S

    def rescale(self, start: float, seconds: float) -> float:
        """`seconds` of work that began at `start`, at the reference host speed."""
        return seconds / self.slowdown(start + seconds / 2)


def _serve() -> None:
    inputs = _fixed_inputs()
    reference_workload(inputs)  # first-call costs stay out of the record
    for _ in sys.stdin:
        t0 = perf_counter()
        reference_workload(inputs)
        print(repr(perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _serve()
