"""Randomized MAP solvers with verifiable certificates.

All solvers consume an oracle object exposing ``num_query``,
``sample(count, stream)`` and ``log_prob_rows(rows)`` (both ConditionalOracle
and TabularDistribution qualify).  All four build their candidate set through
one fold, SampleSet.fold, which takes warm starts, draw batches, Hamming balls
and fixed budgets alike.  Its batched internals are observationally identical
to a draw-by-draw loop: the reported stop index is the first draw at which a
stopping rule holds.

Stopping rules, with p-hat the best scored candidate and p-check the residual
mass 1 - (total mass of distinct candidates):

* deterministic: p-hat >= p-check * (1 - epsilon) certifies the tolerance
  with zero failure probability (exact when p-hat >= p-check);
* probabilistic: after m >= (1 - epsilon) * ln(1/delta) / p-hat random draws
  the leading candidate is certified at level (epsilon, delta).

Under a fixed budget the same sample instead yields a Pareto frontier of
admissible (epsilon, delta) pairs via delta(eps) = (1 - p-hat/(1-eps))^M.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .circuit import pack_rows
from .rng import DrawStream, as_stream

DEFAULT_BATCH_SIZE = 5000
DEFAULT_PARETO_GRID = 100


@dataclass(frozen=True)
class PacParams:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.delta < 1.0):
            raise ValueError("epsilon and delta must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class ParetoFront:
    """Admissible (epsilon, delta) pairs for an estimate p_hat at budget M."""

    p_hat: float
    budget: int
    points: tuple[tuple[float, float], ...]


# Every certificate but Budget carries the (epsilon, delta) it guarantees.


@dataclass(frozen=True)
class Exact:
    epsilon: ClassVar[float] = 0.0
    delta: ClassVar[float] = 0.0
    kind: str = field(default="exact", init=False)


@dataclass(frozen=True)
class DeterministicEps:
    epsilon: float
    delta: ClassVar[float] = 0.0
    kind: str = field(default="det-eps", init=False)


@dataclass(frozen=True)
class Pac:
    epsilon: float
    delta: float
    kind: str = field(default="pac", init=False)


@dataclass(frozen=True)
class Budget:
    front: ParetoFront
    kind: str = field(default="budget", init=False)


Certificate = Exact | DeterministicEps | Pac | Budget


@dataclass(frozen=True)
class Solution:
    q_hat: np.ndarray
    log_p_hat: float
    certificate: Certificate
    draws_used: int
    oracle_calls: int
    wall_time: float


@dataclass(frozen=True)
class TrajectoryPoint:
    m: int
    p_hat: float
    p_check: float
    miss_bound: float
    stop_time_m: int


TrajectorySink = Callable[[TrajectoryPoint], None]


def stop_time(p_hat: float, eps: float, delta: float) -> int | float:
    """Smallest integer m with m >= (1 - eps) * ln(1/delta) / p_hat.

    Natural logarithm; p_hat = 0 returns the +inf sentinel (no draw yet).
    """
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie strictly inside (0, 1)")
    if not (0.0 <= p_hat <= 1.0):
        raise ValueError("p_hat must lie in [0, 1]")
    if p_hat == 0.0:
        return math.inf
    return math.ceil((1.0 - eps) * math.log(1.0 / delta) / p_hat)


def pareto_delta(p_hat: float, eps: float, budget: int) -> float:
    """Minimal admissible failure probability (1 - p_hat/(1-eps))^M."""
    if not (0.0 < p_hat < 1.0):
        raise ValueError("p_hat must lie in (0, 1)")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not (0.0 <= eps < 1.0 - p_hat):
        raise ValueError("eps outside the feasible range [0, 1 - p_hat)")
    return math.exp(budget * math.log1p(-p_hat / (1.0 - eps)))


def pareto_front(p_hat: float, budget: int, grid: int = DEFAULT_PARETO_GRID) -> ParetoFront:
    """Frontier sampled on `grid` evenly spaced tolerances in [0, 1 - p_hat)."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    width = 1.0 - p_hat
    points = []
    for i in range(grid):
        eps = width * i / grid
        points.append((eps, pareto_delta(p_hat, eps, budget)))
    return ParetoFront(p_hat, budget, tuple(points))


def hamming_ball(center: Sequence[int] | np.ndarray, radius: int) -> Iterator[np.ndarray]:
    """All assignments within Hamming distance `radius` of center.

    Ordered by distance, then by big-endian bit pattern; the center comes
    first.  Yields sum_{k<=r} C(n, k) assignments.
    """
    center = np.asarray(center, dtype=np.int8)
    n = center.shape[0]
    if not (0 <= radius <= n):
        raise ValueError(f"radius must lie in [0, {n}]")
    for k in range(radius + 1):
        rows = []
        for combo in combinations(range(n), k):
            row = center.copy()
            row[list(combo)] ^= 1
            rows.append(row)
        block = np.stack(rows)
        order = np.argsort(pack_rows(block), kind="stable")
        for idx in order:
            yield block[idx]


# -- candidate-set engine -----------------------------------------------------


@dataclass(frozen=True)
class Fold:
    """Running state after each row one SampleSet.fold call committed."""

    p_hat: np.ndarray
    p_check: np.ndarray
    m: np.ndarray
    grant: int  # the stop code at the last committed row; 0 if none held


@dataclass
class SampleSet:
    """Deduplicated candidates with running mass and counters.

    Every solver builds its candidate set through `fold`, the only code that
    writes these fields.  `m` counts random draws only: warm starts and
    neighborhood scans enter the set without touching it.  `rows` counts every
    committed row, each one an oracle evaluation.  Duplicates are stored once,
    and the residual mass sums distinct atoms only.
    """

    atoms: set = field(default_factory=set)
    m: int = 0
    rows: int = 0
    log_total_mass: float = -math.inf
    best_bits: np.ndarray | None = None
    best_log_prob: float = -math.inf

    def residual(self) -> float:
        """Upper bound on any unseen atom's probability, clamped to [0, 1]."""
        return max(0.0, -math.expm1(min(self.log_total_mass, 0.0)))

    def p_hat(self) -> float:
        return math.exp(self.best_log_prob) if self.best_log_prob > -math.inf else 0.0

    def fold(
        self,
        bits: np.ndarray,
        log_probs: np.ndarray,
        draws: bool,
        stop: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> Fold:
        """Fold a block of scored rows into the set, in row order.

        Computes p-hat, p-check and the draw count as they stand after each
        row.  With `stop`, a function of those three arrays that is nonzero
        where a stopping rule holds, only the prefix ending at the first such
        row is committed; without it every row is.  Committed rows count as
        random draws when `draws` is set.
        """
        log_probs = np.asarray(log_probs, dtype=np.float64)
        b = bits.shape[0]
        keys_np = pack_rows(bits)
        keys = keys_np.tolist()
        _, first_pos = np.unique(keys_np, return_index=True)
        is_new = np.zeros(b, dtype=bool)
        is_new[first_pos] = True
        is_new &= ~np.fromiter((k in self.atoms for k in keys), dtype=bool, count=b)

        masked = np.where(is_new, log_probs, -np.inf)
        cum_mass = np.logaddexp.accumulate(np.concatenate(([self.log_total_mass], masked)))[1:]
        cum_best = np.maximum.accumulate(np.concatenate(([self.best_log_prob], log_probs)))[1:]
        p_hat = np.exp(cum_best)
        p_check = np.clip(-np.expm1(np.minimum(cum_mass, 0.0)), 0.0, None)
        m = self.m + (np.arange(1, b + 1) if draws else np.zeros(b, dtype=np.int64))
        codes = stop(p_hat, p_check, m) if stop is not None else np.zeros(b, dtype=np.int64)
        committed = int(np.argmax(codes != 0)) + 1 if codes.any() else b
        last = committed - 1

        self.atoms.update(keys[:committed])
        self.m = int(m[last])
        self.rows += committed
        self.log_total_mass = float(cum_mass[last])
        if cum_best[last] > self.best_log_prob:
            self.best_bits = bits[int(np.argmax(log_probs[:committed]))].copy()
            self.best_log_prob = float(cum_best[last])
        return Fold(p_hat[:committed], p_check[:committed], m[:committed], int(codes[last]))


class _Rules:
    """The stopping rules at tolerance (epsilon, delta)."""

    def __init__(self, params: PacParams):
        self.eps, self.delta = params.epsilon, params.delta
        self.need_nat = (1.0 - self.eps) * math.log(1.0 / self.delta)
        # Indexed by the codes `grant` returns.
        self.certificates = (None, Pac(self.eps, self.delta), DeterministicEps(self.eps), Exact())

    def grant(self, p_hat, p_check, m) -> np.ndarray:
        """Per state: 0 where no rule holds, else the index of the certificate
        granted, the deterministic rule taking precedence.  Takes arrays or
        scalars of equal shape."""
        p_hat = np.asarray(p_hat, dtype=np.float64)
        det = (p_hat >= p_check * (1.0 - self.eps)).astype(np.int8)
        with np.errstate(divide="ignore"):
            # need_nat > 0, so m = 0 or p_hat = 0 never passes.
            pac = (m >= self.need_nat / p_hat).astype(np.int8)
        # p_hat >= p_check implies det, so this is 3, 2, 1 or 0.
        return np.maximum(pac, 2 * det + (p_hat >= p_check))


def _warm_set(oracle, warm: Sequence[np.ndarray] | None) -> SampleSet:
    """A candidate set holding the scored warm-start atoms and no draws."""
    state = SampleSet()
    if warm is not None and len(warm):
        rows = np.stack([np.asarray(w, dtype=np.int8) for w in warm])
        state.fold(rows, oracle.log_prob_rows(rows), draws=False)
    return state


def _finish(state: SampleSet, cert: Certificate, t0: float) -> Solution:
    return Solution(
        q_hat=state.best_bits,
        log_p_hat=state.best_log_prob,
        certificate=cert,
        draws_used=state.m,
        oracle_calls=state.rows,
        wall_time=time.perf_counter() - t0,
    )


def _adaptive(
    oracle,
    params: PacParams,
    cap: int | None,
    warm: Sequence[np.ndarray] | None,
    rng: int | DrawStream,
    batch_size: int,
    trajectory: TrajectorySink | list | None,
    radius: int = 0,
    next_segment: Callable[[], int] | None = None,
) -> Solution:
    """The adaptive loop behind pac_map and smooth_pac_map.

    Each batch of draws is folded up to the first draw where a stopping rule
    holds; the draws after it go back to the stream.  With `next_segment`, the
    Hamming ball of `radius` around the leading candidate is folded in after
    each segment of next_segment() random draws, and the rules are checked
    once the whole ball is in.  Without it the draws run in one unbounded
    segment.  The warm-start atoms are folded in first, with no check.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    t0 = time.perf_counter()
    stream = as_stream(rng)
    sink = trajectory.append if isinstance(trajectory, list) else trajectory
    rules = _Rules(params)
    state = _warm_set(oracle, warm)

    while True:
        segment = next_segment() if next_segment is not None else math.inf
        while segment > 0:
            take = min(batch_size, segment, math.inf if cap is None else cap - state.m)
            bits = oracle.sample(take, stream)
            fold = state.fold(bits, oracle.log_prob_rows(bits), draws=True, stop=rules.grant)
            committed = len(fold.m)
            if committed < take:
                stream.rewind(take - committed)
            if sink is not None:
                base = 1.0 - fold.p_hat / (1.0 - rules.eps)
                miss = np.where(base > 0.0, base, 0.0) ** fold.m
                for j in range(committed):
                    sink(
                        TrajectoryPoint(
                            int(fold.m[j]),
                            float(fold.p_hat[j]),
                            float(fold.p_check[j]),
                            float(miss[j]),
                            math.ceil(rules.need_nat / fold.p_hat[j]),
                        )
                    )
            cert = rules.certificates[fold.grant]
            if cert is not None:
                return _finish(state, cert, t0)
            if cap is not None and state.m >= cap:
                return _finish(state, Budget(pareto_front(state.p_hat(), state.m)), t0)
            segment -= committed

        if state.best_bits is not None:
            ball = np.stack(list(hamming_ball(state.best_bits, min(radius, oracle.num_query))))
            state.fold(ball, oracle.log_prob_rows(ball), draws=False)
            cert = rules.certificates[int(rules.grant(state.p_hat(), state.residual(), state.m))]
            if cert is not None:
                return _finish(state, cert, t0)


def pac_map(
    oracle,
    params: PacParams,
    cap: int | None = None,
    warm: Sequence[np.ndarray] | None = None,
    rng: int | DrawStream = 0,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    trajectory: TrajectorySink | list | None = None,
) -> Solution:
    """Adaptive solver: draw until a certificate is available.

    One conditional sample per iteration; each draw updates the leading
    candidate and the residual mass, the deterministic rule is checked, and
    the probabilistic stop time is refreshed from the current estimate.
    Reaching `cap` random draws first downgrades to a budget certificate over
    the realized sample.  Warm-start atoms join the candidate set before the
    loop without counting as draws.
    """
    return _adaptive(oracle, params, cap, warm, rng, batch_size, trajectory)


def smooth_pac_map(
    oracle,
    params: PacParams,
    radius: int = 1,
    exploit_period: int = 100,
    cap: int | None = None,
    warm: Sequence[np.ndarray] | None = None,
    rng: int | DrawStream = 0,
    *,
    eta: float | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    trajectory: TrajectorySink | list | None = None,
) -> Solution:
    """pac_map plus periodic exploitation of the leading candidate.

    After every `exploit_period` random draws the full Hamming ball of
    `radius` around the current best is scored and inserted (these atoms do
    not count as draws; the residual reflects them).  Passing `eta` replaces
    the deterministic schedule with an explore-coin Bernoulli(1 - eta) per
    iteration.  Stopping rules are those of pac_map, evaluated over the full
    candidate set, including right after an exploitation pass.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if exploit_period < 1:
        raise ValueError("exploit_period must be >= 1")
    if eta is not None and not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    coin_stream = as_stream(rng).spawn("explore-coin") if eta is not None else None

    def next_segment() -> int:
        """Number of draws before the next exploitation pass."""
        if eta is None:
            return exploit_period
        count = 0
        while True:
            coins = coin_stream.uniform_block(64, 1).ravel() < (1.0 - eta)
            if not coins.all():
                return count + int(np.argmin(coins))
            count += 64

    return _adaptive(oracle, params, cap, warm, rng, batch_size, trajectory, radius, next_segment)


def budget_pac_map(
    oracle,
    budget: int,
    warm: Sequence[np.ndarray] | None = None,
    rng: int | DrawStream = 0,
    *,
    grid: int = DEFAULT_PARETO_GRID,
) -> tuple[Solution, ParetoFront]:
    """Fixed-budget solver returning the admissible (epsilon, delta) frontier.

    Draws exactly `budget` conditional samples (warm starts are scored but
    uncounted).  If the candidate mass already covers the residual the
    solution is exact and the frontier degenerates to {(0, 0)}; otherwise the
    frontier is sampled on a `grid`-point tolerance grid.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    t0 = time.perf_counter()
    state = _warm_set(oracle, warm)
    draws = oracle.sample(budget, as_stream(rng))
    state.fold(draws, oracle.log_prob_rows(draws), draws=True)
    p_hat, p_check = state.p_hat(), state.residual()
    if p_hat >= p_check:
        front = ParetoFront(p_hat, budget, ((0.0, 0.0),))
        return _finish(state, Exact(), t0), front
    front = pareto_front(p_hat, budget, grid)
    return _finish(state, Budget(front), t0), front


def naive_map(oracle, draws: int, rng: int | DrawStream = 0) -> Solution:
    """Draw a fixed number of samples and return the best-scoring one.

    budget_pac_map without warm starts; the certificate is always the
    realized budget frontier, even where budget_pac_map would call it exact.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    sol, front = budget_pac_map(oracle, draws, rng=rng)
    return replace(sol, certificate=Budget(front))
