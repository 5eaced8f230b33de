"""Randomized MAP solvers with verifiable certificates.

All solvers consume an oracle object exposing ``num_query``,
``sample(count, stream)`` and ``log_prob_rows(rows)`` (both ConditionalOracle
and TabularDistribution qualify).  They share one candidate-set engine whose
batched internals are observationally identical to a draw-by-draw loop: the
reported stop index is the first draw at which a stopping rule holds.

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
from typing import Callable, Iterator, Sequence

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


@dataclass(frozen=True)
class Exact:
    kind: str = field(default="exact", init=False)


@dataclass(frozen=True)
class DeterministicEps:
    epsilon: float
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


@dataclass
class SampleSet:
    """Deduplicated candidates with running mass and draw counter.

    `m` counts random draws only: warm starts and neighborhood scans insert
    atoms without touching it.  Duplicates increment `m` but are stored once,
    and the residual mass sums distinct atoms only.
    """

    atoms: dict = field(default_factory=dict)
    m: int = 0
    log_total_mass: float = -math.inf
    best_bits: np.ndarray | None = None
    best_log_prob: float = -math.inf

    def residual(self) -> float:
        """Upper bound on any unseen atom's probability, clamped to [0, 1]."""
        return max(0.0, -math.expm1(min(self.log_total_mass, 0.0)))

    def p_hat(self) -> float:
        return math.exp(self.best_log_prob) if self.best_log_prob > -math.inf else 0.0

    def insert_atoms(self, bits: np.ndarray, log_probs: np.ndarray) -> None:
        """Insert scored atoms without counting draws (warm starts, scans)."""
        bits = np.atleast_2d(bits)
        keys = pack_rows(bits).tolist()
        for i, key in enumerate(keys):
            if key in self.atoms:
                continue
            lp = float(log_probs[i])
            self.atoms[key] = lp
            self.log_total_mass = np.logaddexp(self.log_total_mass, lp)
            if lp > self.best_log_prob:
                self.best_log_prob = lp
                self.best_bits = bits[i].copy()


def _certify(p_hat: float, p_check: float, m: int, eps: float, delta: float, need_nat: float) -> Certificate | None:
    """The certificate the stopping rules grant at this point, if any."""
    if p_hat >= p_check * (1.0 - eps):
        return Exact() if p_hat >= p_check else DeterministicEps(eps)
    if m >= 1 and p_hat > 0.0 and m >= need_nat / p_hat:
        return Pac(eps, delta)
    return None


def _scan_draws(
    state: SampleSet,
    bits: np.ndarray,
    log_probs: np.ndarray,
    eps: float,
    delta: float,
    need_nat: float,
    trajectory: TrajectorySink | None,
) -> tuple[int, Certificate | None]:
    """Fold a batch of draws into `state`, stopping at the first draw where a
    stopping rule holds.  Draws after the stop index are not committed.

    Returns the number of committed draws and the certificate granted at the
    last of them, if any.
    """
    b = bits.shape[0]
    keys_np = pack_rows(bits)
    keys_py = keys_np.tolist()
    _, first_pos = np.unique(keys_np, return_index=True)
    is_first = np.zeros(b, dtype=bool)
    is_first[first_pos] = True
    atoms = state.atoms
    is_old = np.fromiter((k in atoms for k in keys_py), dtype=bool, count=b)
    is_new = is_first & ~is_old

    masked = np.where(is_new, log_probs, -np.inf)
    cum_mass = np.logaddexp.accumulate(np.concatenate(([state.log_total_mass], masked)))[1:]
    cum_best = np.maximum.accumulate(np.concatenate(([state.best_log_prob], log_probs)))[1:]
    p_hat = np.exp(cum_best)
    p_check = np.clip(-np.expm1(np.minimum(cum_mass, 0.0)), 0.0, None)
    m_abs = state.m + np.arange(1, b + 1)

    with np.errstate(divide="ignore"):
        stop = (p_hat >= p_check * (1.0 - eps)) | (m_abs >= need_nat / p_hat)
    committed = int(np.argmax(stop)) + 1 if stop.any() else b
    last = committed - 1
    cert = _certify(float(p_hat[last]), float(p_check[last]), int(m_abs[last]), eps, delta, need_nat)

    if trajectory is not None:
        base = 1.0 - p_hat[:committed] / (1.0 - eps)
        miss = np.where(base > 0.0, base, 0.0) ** m_abs[:committed]
        for j in range(committed):
            trajectory(
                TrajectoryPoint(
                    int(m_abs[j]),
                    float(p_hat[j]),
                    float(p_check[j]),
                    float(miss[j]),
                    math.ceil(need_nat / p_hat[j]),
                )
            )

    prefix_new = np.nonzero(is_new[:committed])[0]
    for i in prefix_new:
        atoms[keys_py[i]] = float(log_probs[i])
    state.m += committed
    state.log_total_mass = float(cum_mass[last])
    prefix_best = float(cum_best[last])
    if prefix_best > state.best_log_prob:
        first = int(np.argmax(log_probs[:committed]))
        state.best_bits = bits[first].copy()
        state.best_log_prob = prefix_best
    return committed, cert


def _score_and_insert(state: SampleSet, oracle, rows: np.ndarray) -> int:
    """Score candidate rows through the oracle and insert them; returns the
    number of oracle evaluations performed."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int8))
    if rows.shape[0] == 0:
        return 0
    log_probs = np.asarray(oracle.log_prob_rows(rows), dtype=np.float64)
    state.insert_atoms(rows, log_probs)
    return rows.shape[0]


def _finish(state: SampleSet, cert: Certificate, oracle_calls: int, t0: float) -> Solution:
    return Solution(
        q_hat=state.best_bits,
        log_p_hat=state.best_log_prob,
        certificate=cert,
        draws_used=state.m,
        oracle_calls=oracle_calls,
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

    With `next_segment`, the Hamming ball of `radius` around the leading
    candidate is scored and inserted after each segment of next_segment()
    random draws.  Without it the draws run in one unbounded segment.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    t0 = time.perf_counter()
    stream = as_stream(rng)
    sink = trajectory.append if isinstance(trajectory, list) else trajectory
    eps, delta = params.epsilon, params.delta
    need_nat = (1.0 - eps) * math.log(1.0 / delta)

    state = SampleSet()
    oracle_calls = 0
    if warm is not None and len(warm):
        oracle_calls += _score_and_insert(state, oracle, np.stack([np.asarray(w) for w in warm]))

    while True:
        segment = next_segment() if next_segment is not None else math.inf
        while segment > 0:
            take = min(batch_size, segment, math.inf if cap is None else cap - state.m)
            bits = oracle.sample(take, stream)
            log_probs = np.asarray(oracle.log_prob_rows(bits), dtype=np.float64)
            committed, cert = _scan_draws(state, bits, log_probs, eps, delta, need_nat, sink)
            oracle_calls += committed
            if committed < take:
                stream.rewind(take - committed)
            if cert is not None:
                return _finish(state, cert, oracle_calls, t0)
            if cap is not None and state.m >= cap:
                return _finish(state, Budget(pareto_front(state.p_hat(), state.m)), oracle_calls, t0)
            segment -= committed

        if state.best_bits is not None:
            ball = hamming_ball(state.best_bits, min(radius, oracle.num_query))
            oracle_calls += _score_and_insert(state, oracle, np.stack(list(ball)))
            cert = _certify(state.p_hat(), state.residual(), state.m, eps, delta, need_nat)
            if cert is not None:
                return _finish(state, cert, oracle_calls, t0)


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
    warm_rows = (
        np.stack([np.asarray(w, dtype=np.int8) for w in warm])
        if warm is not None and len(warm)
        else np.empty((0, oracle.num_query), dtype=np.int8)
    )
    draws = oracle.sample(budget, as_stream(rng))
    all_rows = np.concatenate([warm_rows, draws]) if warm_rows.size else draws
    log_probs = np.asarray(oracle.log_prob_rows(all_rows), dtype=np.float64)

    keys = pack_rows(all_rows)
    _, first_pos = np.unique(keys, return_index=True)
    best = int(np.argmax(log_probs))
    state = SampleSet(
        atoms=dict(zip(keys.tolist(), log_probs.tolist())),
        m=budget,
        log_total_mass=float(np.logaddexp.reduce(log_probs[first_pos])),
        best_bits=all_rows[best].copy(),
        best_log_prob=float(log_probs[best]),
    )
    p_hat, p_check = state.p_hat(), state.residual()
    if p_hat >= p_check:
        front = ParetoFront(p_hat, budget, ((0.0, 0.0),))
        return _finish(state, Exact(), all_rows.shape[0], t0), front
    front = pareto_front(p_hat, budget, grid)
    return _finish(state, Budget(front), all_rows.shape[0], t0), front


def naive_map(oracle, draws: int, rng: int | DrawStream = 0) -> Solution:
    """Draw a fixed number of samples and return the best-scoring one.

    budget_pac_map without warm starts; the certificate is always the
    realized budget frontier, even where budget_pac_map would call it exact.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    sol, front = budget_pac_map(oracle, draws, rng=rng)
    return replace(sol, certificate=Budget(front))
