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
from typing import Callable, ClassVar, Sequence

import numpy as np

from .circuit import pack_rows
from .rng import DrawStream, _integer, as_stream

DEFAULT_BATCH_SIZE = 5000
# The adaptive solvers' first draw batch; each later batch doubles, up to the
# batch size.  Most certified runs stop within tens to hundreds of draws.
_FIRST_BATCH = 64
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
    certificate: Certificate | None  # None from the heuristics in baselines.py
    draws_used: int
    oracle_calls: int
    wall_time: float


@dataclass(frozen=True)
class TrajectoryPoint:
    m: int
    p_hat: float
    p_check: float
    miss_bound: float
    stop_time_m: int | float  # stop_time: math.inf while p_hat is 0


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
    """Minimal admissible failure probability (1 - p_hat/(1-eps))^M.

    p_hat = 0 (an estimate that underflows exp) gives 1.0.
    """
    if not (0.0 <= p_hat < 1.0):
        raise ValueError("p_hat must lie in [0, 1)")
    budget = _integer(budget, "budget", 1)
    if not (0.0 <= eps < 1.0 - p_hat):
        raise ValueError("eps outside the feasible range [0, 1 - p_hat)")
    return math.exp(budget * math.log1p(-p_hat / (1.0 - eps)))


def pareto_front(p_hat: float, budget: int, grid: int = DEFAULT_PARETO_GRID) -> ParetoFront:
    """Frontier sampled on `grid` evenly spaced tolerances in [0, 1 - p_hat)."""
    grid = _integer(grid, "grid", 1)
    width = 1.0 - p_hat
    points = []
    for i in range(grid):
        eps = width * i / grid
        points.append((eps, pareto_delta(p_hat, eps, budget)))
    return ParetoFront(p_hat, budget, tuple(points))


def hamming_ball(center: Sequence[int] | np.ndarray, radius: int) -> np.ndarray:
    """All assignments within Hamming distance `radius` of center, as rows.

    Returns an (N, n) int8 array, N = sum_{k<=r} C(n, k), ordered by
    distance, then by big-endian bit pattern; the center comes first.
    """
    center = np.asarray(center, dtype=np.int8)
    n = center.shape[0]
    radius = _integer(radius, "radius")
    if not (0 <= radius <= n):
        raise ValueError(f"radius must lie in [0, {n}]")
    blocks = [center[None, :]]
    flips = np.arange(n)[:, None]  # the k-subsets of positions, one per row
    for k in range(1, radius + 1):
        if k > 1:  # extend each (k-1)-subset by every position after its last
            last = flips[:, -1]
            counts = n - 1 - last
            parent = np.repeat(np.arange(flips.shape[0]), counts)
            offset = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
            flips = np.column_stack((flips[parent], last[parent] + 1 + offset))
        block = np.repeat(center[None, :], flips.shape[0], axis=0)
        block[np.repeat(np.arange(flips.shape[0]), k), flips.ravel()] ^= 1
        blocks.append(block[np.argsort(pack_rows(block), kind="stable")])
    return np.concatenate(blocks)


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
    committed row, each one an oracle evaluation; a Hamming ball that
    smooth_pac_map does not rescore is not folded and adds none.  Duplicates
    are stored once, and the residual mass sums distinct atoms only.
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
        random draws when `draws` is set.  An empty block commits nothing;
        `log_probs` must hold one entry per row, and the set is left as it
        was when it does not.
        """
        log_probs = np.asarray(log_probs, dtype=np.float64)
        b = bits.shape[0]
        if log_probs.shape != (b,):
            raise ValueError(f"log_probs has shape {log_probs.shape}, expected ({b},) for {b} rows")
        if b == 0:
            return Fold(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), 0)
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
    """A candidate set holding the scored warm-start atoms and no draws.  A
    row with an entry other than 0 or 1, such as MARGINAL, which an oracle
    reads as summed out, raises ValueError."""
    state = SampleSet()
    if warm is not None and len(warm):
        rows = np.stack([np.asarray(w) for w in warm])
        for k, row in enumerate(rows):
            if not ((row == 0) | (row == 1)).all():
                raise ValueError(f"warm start {k} is not a 0/1 assignment: {row.tolist()}")
        rows = rows.astype(np.int8)
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
    trajectory: list | None,
    radius: int = 0,
    next_segment: Callable[[int | float], int] | None = None,
) -> Solution:
    """The adaptive loop behind pac_map and smooth_pac_map.

    Draw batches start at _FIRST_BATCH draws and double, up to batch_size, to
    the draws left before `cap` and to those left before the PAC rule holds
    at the current p-hat.  Each batch is sampled and scored whole, then
    folded up to the first draw where a stopping rule holds.  With
    `next_segment`, the batch is folded in segments of next_segment(left)
    random draws, `left` being the draws left before `cap` (inf if None),
    and after each segment the Hamming ball of `radius` around the leading
    candidate is folded in, unless it was the last ball folded, and the
    rules are checked once the whole ball is in.  A segment of `left` or
    more draws ends at or past the cap, where the run stops before any ball.
    Without `next_segment` the draws run in one unbounded segment.  The
    warm-start atoms are folded in first, with no check.  Whatever stops the
    run, the draws it did not use go back to the stream.
    """
    cap = math.inf if cap is None else _integer(cap, "cap", 1)
    batch_size = _integer(batch_size, "batch_size", 1)
    t0 = time.perf_counter()
    stream = as_stream(rng)
    rules = _Rules(params)
    state = _warm_set(oracle, warm)
    segment = next_segment(cap) if next_segment is not None else math.inf
    centre = None  # the centre of the last ball folded

    def exploit() -> Certificate | None:
        """Fold the balls due at the end of each finished segment; a
        zero-length segment ends at once.  A ball around the centre of the
        last one is not scored again: p-hat only rises strictly, so while the
        leader stands every atom of its ball is in the set, none scores above
        it, and a second fold would change nothing but the row count."""
        nonlocal segment, centre
        while segment == 0:
            if state.best_bits is not None:
                if not np.array_equal(state.best_bits, centre):
                    centre = state.best_bits
                    ball = hamming_ball(centre, min(radius, oracle.num_query))
                    state.fold(ball, oracle.log_prob_rows(ball), draws=False)
                cert = rules.certificates[int(rules.grant(state.p_hat(), state.residual(), state.m))]
                if cert is not None:
                    return cert
            segment = next_segment(cap - state.m)
        return None

    def pac_left() -> int | float:
        """Draws after which the PAC rule holds at the current p-hat (at least
        one).  p-hat never falls, so a batch capped there samples no draw past
        the stop."""
        stop = rules.need_nat / state.p_hat() if state.p_hat() > 0.0 else math.inf
        return max(1, math.ceil(stop) - state.m) if stop < math.inf else math.inf

    cert = exploit()
    size = _FIRST_BATCH
    while cert is None:
        take = min(size, batch_size, cap - state.m, pac_left())
        size *= 2
        bits = oracle.sample(take, stream)
        log_probs = oracle.log_prob_rows(bits)
        used = 0
        while cert is None and used < take:
            end = min(take, used + segment)
            fold = state.fold(bits[used:end], log_probs[used:end], draws=True, stop=rules.grant)
            committed = len(fold.m)
            used += committed
            segment -= committed
            if trajectory is not None:
                base = 1.0 - fold.p_hat / (1.0 - rules.eps)
                miss = np.where(base > 0.0, base, 0.0) ** fold.m
                for j in range(committed):
                    trajectory.append(
                        TrajectoryPoint(
                            int(fold.m[j]),
                            float(fold.p_hat[j]),
                            float(fold.p_check[j]),
                            float(miss[j]),
                            stop_time(fold.p_hat[j], rules.eps, rules.delta),
                        )
                    )
            cert = rules.certificates[fold.grant]
            if cert is None and state.m >= cap:
                cert = Budget(pareto_front(state.p_hat(), state.m))
            if cert is None:
                cert = exploit()
        stream.rewind(take - used)
    return _finish(state, cert, t0)


def pac_map(
    oracle,
    params: PacParams,
    cap: int | None = None,
    warm: Sequence[np.ndarray] | None = None,
    rng: int | DrawStream = 0,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    trajectory: list | None = None,
) -> Solution:
    """Adaptive solver: draw until a certificate is available.

    One conditional sample per iteration; each draw updates the leading
    candidate and the residual mass, the deterministic rule is checked, and
    the probabilistic stop time is refreshed from the current estimate.
    Reaching `cap` random draws first downgrades to a budget certificate over
    the realized sample.  Warm-start atoms join the candidate set before the
    loop without counting as draws.

    Draws are sampled and scored in batches of 64, 128, 256, ... draws, up
    to `batch_size`, the largest batch, and never past the draw at which the
    PAC rule holds for the current estimate; draws past the stop go back to
    the stream.  The answer does not depend on `batch_size`.
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
    trajectory: list | None = None,
) -> Solution:
    """pac_map plus periodic exploitation of the leading candidate.

    After every `exploit_period` random draws the full Hamming ball of
    `radius` around the current best is scored and inserted (these atoms do
    not count as draws; the residual reflects them).  A ball whose centre
    was the last one folded is not rescored: its atoms are already in the
    set, so oracle_calls counts the draws, the warm starts and each distinct
    ball once.  Passing `eta` replaces the deterministic schedule with an
    explore-coin Bernoulli(1 - eta) per iteration.  Stopping rules are those
    of pac_map, evaluated over the full candidate set, including right after
    an exploitation pass.

    Batches grow as in pac_map, up to `batch_size`, and the exploitation
    schedule does not cut them: each batch is sampled and scored whole, then
    folded one exploitation period at a time.  The answer does not depend on
    `batch_size`.
    """
    radius = _integer(radius, "radius", 1)
    exploit_period = _integer(exploit_period, "exploit_period", 1)
    if eta is not None and not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    coin_stream = as_stream(rng).spawn("explore-coin") if eta is not None else None

    def next_segment(left: int | float) -> int:
        """Number of draws before the next exploitation pass.  The coin scan
        stops at `left` or more draws, past which the run never exploits."""
        if eta is None:
            return exploit_period
        count = 0
        while count < left:
            coins = coin_stream.uniform_block(64, 1).ravel() < (1.0 - eta)
            if not coins.all():
                return count + int(np.argmin(coins))
            count += 64
        return count

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
    budget = _integer(budget, "budget", 1)
    grid = _integer(grid, "grid", 1)  # refused on the exact path too, which never samples the frontier
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
    draws = _integer(draws, "draws", 1)
    sol, front = budget_pac_map(oracle, draws, rng=rng)
    return replace(sol, certificate=Budget(front))
