import math
import re
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacmap import circuit as circuit_module
from pacmap.bench import random_query_partition
from pacmap.circuit import circuit_from_pmf, enumerate_assignments, generate_random_circuit, pack_rows, parse_circuit
from pacmap.inference import (
    QuerySpec,
    TabularDistribution,
    brute_force_map,
    make_oracle,
    sample_joint,
    superlevel_mass,
    tabulate_conditional,
)
from pacmap.rng import DrawStream, derive_seed
from pacmap.solvers import (
    Budget,
    DeterministicEps,
    Exact,
    Pac,
    PacParams,
    SampleSet,
    _Rules,
    budget_pac_map,
    hamming_ball,
    naive_map,
    pac_map,
    pareto_delta,
    pareto_front,
    smooth_pac_map,
    stop_time,
)
from conftest import rat_spn


def random_table(n, seed, alpha=0.3):
    rng = np.random.default_rng(seed)
    return TabularDistribution.from_probs(rng.dirichlet(np.full(2**n, alpha)))


def sequential_adaptive_reference(table, eps, delta, seed, cap=None):
    """One-draw-at-a-time rerun of the adaptive loop with linear-space mass.

    Independent of the batched engine: returns (stop_m, cert_kind, p_hat)
    and asserts along the way that no stopping rule held at any earlier
    draw (uniform optimality, restated at the implementation level).
    """
    stream = DrawStream(seed)
    seen = {}
    mass = 0.0
    best = -math.inf
    m = 0
    need = (1.0 - eps) * math.log(1.0 / delta)
    while True:
        m += 1
        bits = table.sample(1, stream)[0]
        lp = table.log_prob_rows([bits])[0]
        key = int(pack_rows(bits[None, :])[0])
        if key not in seen:
            seen[key] = lp
            mass += math.exp(lp)
        best = max(best, lp)
        p_hat = math.exp(best)
        p_check = max(0.0, 1.0 - mass)
        if p_hat >= p_check * (1.0 - eps):
            return m, ("exact" if p_hat >= p_check else "det-eps"), p_hat
        if m >= need / p_hat:
            return m, "pac", p_hat
        if cap is not None and m >= cap:
            return m, "budget", p_hat


# -- stop_time ----------------------------------------------------------------


def test_stop_time_illustration_anchor():
    assert stop_time(0.104, 0.01, 0.01) == 44


def test_stop_time_uniform_formula():
    for n in (4, 8, 10):
        want = math.ceil(2**n * 0.99 * math.log(100.0))
        assert stop_time(2.0**-n, 0.01, 0.01) == want


def test_stop_time_small_case():
    assert stop_time(1.0, 0.5, 0.5) == 1


def test_stop_time_zero_estimate_is_infinite():
    assert stop_time(0.0, 0.1, 0.1) == math.inf


def test_stop_time_rejects_bad_params():
    with pytest.raises(ValueError):
        stop_time(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        stop_time(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        stop_time(1.5, 0.5, 0.5)


def _division_grant(rules, p_hat, p_check, m):
    """The stop codes by a plain division need_nat / p_hat, under np.errstate
    so that p_hat = 0, or a subnormal p_hat, gives inf."""
    p_hat = np.asarray(p_hat, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        pac = m >= rules.need_nat / p_hat
    return np.where(p_hat >= p_check * (1.0 - rules.eps), (p_hat >= p_check) + np.int8(2), pac)


@pytest.mark.parametrize("eps,delta", [(0.01, 0.01), (0.3, 0.3), (0.5, 1e-300), (1 - 2**-52, 1 - 2**-52)])
def test_rules_grant_matches_a_plain_division(eps, delta):
    # On a grid of p-hat (0, subnormal, around the floor and each m = need/p
    # boundary, equal to p-check and to p-check * (1 - eps)), p-check and m
    # (0 to 2^62), the codes equal those of the division by p-hat, as arrays
    # and as Python or numpy scalars, dtype included, with no warning raised.
    rules = _Rules(PacParams(eps, delta))
    p_checks = [0.0, 1e-300, 0.25, 0.5, 1.0]
    p_hats = {0.0, 5e-324, 1e-300, rules.p_floor / 2, rules.p_floor, 1e-3, 0.25, 0.5, 1.0}
    for m in (1, 999, 1000):
        boundary = rules.need_nat / m
        p_hats |= {np.nextafter(boundary, 0.0), boundary, np.nextafter(boundary, 1.0)}
    for p_check in p_checks:
        p_hats |= {p_check, p_check * (1.0 - eps)}
    p_hats = [float(p) for p in sorted(p_hats) if p <= 1.0]
    ms = [0, 1, 999, 1000, 1001, 2**62]
    grid_p, grid_c, grid_m = (a.ravel() for a in np.meshgrid(p_hats, p_checks, ms, indexing="ij"))
    grid_m = grid_m.astype(np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rules.grant(grid_p, grid_c, grid_m)
        want = _division_grant(rules, grid_p, grid_c, grid_m)
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.int8, grid_p.shape)
        assert got.tolist() == want.tolist()
        assert set(want.tolist()) == {0, 1, 2, 3}  # the grid reaches every code
        for p_hat, p_check, m, code in zip(grid_p.tolist(), grid_c.tolist(), grid_m.tolist(), want.tolist()):
            for args in ((p_hat, p_check, m), (np.float64(p_hat), np.float64(p_check), np.int64(m))):
                one, reference = rules.grant(*args), _division_grant(rules, *args)
                assert (one.dtype, one.shape, int(one)) == (reference.dtype, reference.shape, code), args


# -- adaptive solver ----------------------------------------------------------


def test_pac_map_point_mass():
    table = TabularDistribution.from_probs([0.0, 0.0, 1.0, 0.0])
    sol = pac_map(table, PacParams(0.1, 0.1), rng=4)
    assert sol.draws_used == 1
    assert isinstance(sol.certificate, Exact)
    assert math.exp(sol.log_p_hat) == pytest.approx(1.0)
    assert sol.q_hat.tolist() == [1, 0]


def test_pac_map_two_atom_uniform_stops_at_one_draw():
    # After one draw p_hat = 0.5 >= 0.45 = p_check * (1 - eps), so the run
    # stops immediately.  Equality p_hat == p_check upgrades the certificate
    # to exact: no unseen atom can exceed the residual bound.
    table = TabularDistribution.from_probs([0.5, 0.5])
    sol = pac_map(table, PacParams(0.1, 0.1), rng=8)
    assert sol.draws_used == 1
    assert isinstance(sol.certificate, Exact)
    assert math.exp(sol.log_p_hat) == pytest.approx(0.5)


def test_deterministic_eps_certificate_when_residual_larger():
    # mode seen (0.45) but residual 0.55 still exceeds it: eps-certificate only
    table = TabularDistribution.from_probs([0.45, 0.25, 0.2, 0.1])
    sol = pac_map(table, PacParams(0.3, 0.3), rng=1)
    if isinstance(sol.certificate, DeterministicEps):
        assert math.exp(sol.log_p_hat) < 1.0


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_batched_engine_matches_sequential_reference(seed):
    table = random_table(6, derive_seed(seed, "table"), alpha=0.5)
    eps, delta = 0.05, 0.05
    want_m, want_kind, want_p = sequential_adaptive_reference(table, eps, delta, seed)
    sol = pac_map(table, PacParams(eps, delta), rng=DrawStream(seed), batch_size=7)
    assert sol.draws_used == want_m
    assert sol.certificate.kind == want_kind
    assert math.exp(sol.log_p_hat) == pytest.approx(want_p, rel=1e-12)
    # batch size must not change the outcome
    sol2 = pac_map(table, PacParams(eps, delta), rng=DrawStream(seed), batch_size=5000)
    assert sol2.draws_used == want_m and sol2.certificate.kind == want_kind


BATCH_SIZES = (1, 7, 100, 5000)


def _outcome(sol):
    return sol.q_hat.tolist(), sol.certificate, sol.draws_used, sol.oracle_calls


@pytest.mark.parametrize("eta", [None, 0.1], ids=["period", "eta"])
@pytest.mark.parametrize("seed", range(6))
def test_smooth_engine_is_batch_size_invariant(seed, eta):
    # Seeds cover exact, pac and budget stops, cold and warm.
    table = random_table(8, derive_seed(seed, "smooth"), alpha=(0.02, 0.5, 2.0)[seed % 3])
    warm = [np.zeros(8, dtype=np.int8)] if seed % 2 else None
    outcomes = [
        _outcome(
            smooth_pac_map(
                table, PacParams(0.02, 0.02), radius=1, exploit_period=9, cap=300, warm=warm,
                rng=DrawStream(seed), eta=eta, batch_size=bs,
            )
        )
        for bs in BATCH_SIZES
    ]
    assert all(o == outcomes[0] for o in outcomes[1:])


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_budget_solvers_match_engine_at_every_batch_size(warm, monkeypatch):
    # budget_pac_map folds its budget in batches of _CHUNK_BYTES // |Q|
    # draws: all 400 in one at the default size, 7 or 1 at a time under the
    # patched ones.  Where no stopping rule fires first, the adaptive engine
    # capped at the same budget must commit the same draws and reach the
    # same answer at every batch size.
    table = TabularDistribution.from_probs(np.random.default_rng(4).dirichlet(np.full(2**10, 5.0)))
    rows = [np.zeros(10, dtype=np.int8)] if warm else None
    sol, _ = budget_pac_map(table, 400, warm=rows, rng=DrawStream(3))
    assert isinstance(sol.certificate, Budget)
    want = _outcome(sol)
    for chunk_bytes in (70, 10):
        monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", chunk_bytes)
        assert _outcome(budget_pac_map(table, 400, warm=rows, rng=DrawStream(3))[0]) == want
    monkeypatch.undo()
    if not warm:
        assert _outcome(naive_map(table, 400, rng=DrawStream(3))) == want
    for bs in BATCH_SIZES:
        got = pac_map(table, PacParams(0.01, 0.01), cap=400, warm=rows, rng=DrawStream(3), batch_size=bs)
        assert _outcome(got) == want


class CountingOracle:
    """Pass-through oracle that records the size of every sample and score call."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.num_query = oracle.num_query
        self.sampled, self.scored = [], []

    def sample(self, count, rng):
        self.sampled.append(count)
        return self.oracle.sample(count, rng)

    def log_prob_rows(self, rows):
        self.scored.append(len(rows))
        return self.oracle.log_prob_rows(rows)


def passes_due(stream, eta, draws):
    """Exploitation passes that smooth_pac_map's explore-coin schedule makes
    due within `draws` random draws, replayed from the coin stream.  A coin
    below 1 - eta explores; a segment is the run of exploring coins before
    the first one that does not, read in blocks of 64 coins whose rest is
    dropped, and a pass falls due at the end of each segment."""
    coins = stream.spawn("explore-coin")
    passes = used = count = 0
    while True:
        block = coins.uniform_block(64, 1).ravel() < (1.0 - eta)
        if block.all():
            count += 64
            continue
        used += count + int(np.argmin(block))
        if used > draws:
            return passes
        passes, count = passes + 1, 0


PARAMS = PacParams(0.01, 0.01)
STOP_PATHS = {
    # name: (table, solver on (oracle, stream), check on (solution, trajectory, oracle))
    # The second batch ends at the PAC stop for p-hat after 64 draws (draw
    # 179); p-hat rose within it, so the rule held earlier.
    "pac mid-batch": (
        (8, 2, 0.5),
        lambda o, s, pts: pac_map(o, PARAMS, rng=s, trajectory=pts),
        lambda sol, pts, o: o.sampled == [64, 115] and sol.draws_used < 64 + 115,
    ),
    "smooth mid-segment": (
        (8, 2, 0.5),
        lambda o, s, pts: smooth_pac_map(o, PARAMS, exploit_period=9, rng=s, trajectory=pts),
        lambda sol, pts, o: sol.draws_used % 9 != 0 and sol.draws_used < 64 + 128,
    ),
    # The ball covers every atom, so the first ball check certifies; no rule
    # held at the fifth draw.
    "smooth ball check mid-batch": (
        (6, 21, 1.0),
        lambda o, s, pts: smooth_pac_map(o, PARAMS, radius=6, exploit_period=5, rng=s, trajectory=pts),
        lambda sol, pts, o: (
            o.sampled == [64]
            and sol.draws_used == 5
            and pts[-1].p_hat < pts[-1].p_check * 0.99
            and pts[-1].m < pts[-1].stop_time_m
        ),
    ),
    # At eta = 0.9 nine segments in ten are empty: more passes than draws.
    "eta zero-length segments": (
        (8, 2, 0.5),
        lambda o, s, pts: smooth_pac_map(o, PARAMS, eta=0.9, rng=s, trajectory=pts),
        lambda sol, pts, o: passes_due(DrawStream(3), 0.9, sol.draws_used) > sol.draws_used + 1,
    ),
    "cap": (
        (12, 4, 5.0),
        lambda o, s, pts: pac_map(o, PARAMS, cap=1000, rng=s, trajectory=pts),
        lambda sol, pts, o: isinstance(sol.certificate, Budget) and sol.draws_used == 1000,
    ),
}


@pytest.mark.parametrize("path", list(STOP_PATHS))
def test_every_stop_returns_the_unused_draws(path):
    shape, run, check = STOP_PATHS[path]
    oracle = CountingOracle(random_table(*shape))
    stream = DrawStream(3, cursor=1000)
    points = []
    sol = run(oracle, stream, points)
    assert check(sol, points, oracle), (sol, oracle.sampled)
    assert stream.cursor == 1000 + sol.draws_used


@pytest.mark.parametrize("batch_size", [1, 50, 100, 5000])
@pytest.mark.parametrize("cap", [30, 1000, 3000])
@pytest.mark.parametrize("smooth", [False, True], ids=["pac", "smooth"])
def test_draw_batches_double_from_64_up_to_batch_size_and_cap(batch_size, cap, smooth):
    # A flat table: every run stops at the cap.
    oracle = CountingOracle(random_table(12, 4, alpha=5.0))
    if smooth:
        sol = smooth_pac_map(oracle, PARAMS, exploit_period=7, cap=cap, rng=5, batch_size=batch_size)
    else:
        sol = pac_map(oracle, PARAMS, cap=cap, rng=5, batch_size=batch_size)
    assert sol.draws_used == cap == sum(oracle.sampled)
    m = 0
    for i, size in enumerate(oracle.sampled):
        assert size == min(64 * 2**i, batch_size, cap - m)
        m += size


@pytest.mark.parametrize("smooth", [False, True], ids=["pac", "smooth"])
def test_batches_stop_at_the_pac_rule_for_the_current_estimate(smooth):
    # The mode (p = 0.05) turns up within the first 64 draws and no other
    # atom comes close, so p-hat stays 0.05 and the PAC rule holds at draw
    # ceil(0.99 * ln(100) / 0.05) = 92: the second batch stops there.
    probs = np.full(2**10, 0.95 / (2**10 - 1))
    probs[0] = 0.05
    oracle = CountingOracle(TabularDistribution.from_probs(probs))
    if smooth:
        sol = smooth_pac_map(oracle, PARAMS, exploit_period=100, rng=4)
    else:
        sol = pac_map(oracle, PARAMS, rng=4)
    assert isinstance(sol.certificate, Pac) and sol.draws_used == 92
    assert oracle.sampled == [64, 28]


def test_smooth_samples_whole_batches_across_exploitation_periods():
    # 64 + 128 + ... + 2048 = 4032 draws, then the last 968 up to the cap.
    oracle = CountingOracle(random_table(12, 4, alpha=5.0))
    sol = smooth_pac_map(oracle, PARAMS, exploit_period=100, cap=5000, rng=3, batch_size=5000)
    assert isinstance(sol.certificate, Budget)
    assert oracle.sampled == [64, 128, 256, 512, 1024, 2048, 968]


@pytest.mark.parametrize("n, alpha, table_seed", [(6, 0.1, 1), (8, 0.3, 2), (6, 1.0, 3)])
def test_exploiting_and_warm_runs_are_pac_sound(n, alpha, table_seed):
    # Criterion 3's check for the runs that can stop on a p-hat taken from
    # atoms they never sampled: Hamming-ball scans (period and eta schedule)
    # and a warm start at the best atom just below the tolerance.
    eps = delta = 0.1
    runs = 400
    params = PacParams(eps, delta)
    table = random_table(n, table_seed, alpha=alpha)
    _, log_pstar = brute_force_map(table)
    threshold = log_pstar + math.log1p(-eps)
    below = np.flatnonzero(table.log_probs < threshold)
    near = int(below[np.argmax(table.log_probs[below])])
    near_bits = ((near >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    configs = {
        "smooth-period": lambda s: smooth_pac_map(table, params, exploit_period=10, rng=s, batch_size=64),
        "smooth-eta": lambda s: smooth_pac_map(table, params, eta=0.1, rng=s, batch_size=64),
        "pac-warm": lambda s: pac_map(table, params, warm=[near_bits], rng=s, batch_size=64),
        "smooth-warm": lambda s: smooth_pac_map(
            table, params, exploit_period=10, warm=[near_bits], rng=s, batch_size=64
        ),
    }
    bound = delta + 3 * math.sqrt(delta * (1 - delta) / runs)
    rates = {
        name: sum(run(DrawStream(derive_seed(table_seed, name, r))).log_p_hat < threshold for r in range(runs)) / runs
        for name, run in configs.items()
    }
    assert all(rate <= bound for rate in rates.values()), (rates, bound)


@pytest.mark.parametrize("n, alpha, table_seed", [(6, 0.05, 1), (8, 0.5, 2), (10, 0.05, 4), (6, 1.0, 3)])
def test_budget_frontier_with_warm_starts_is_sound(n, alpha, table_seed):
    # Criterion 5's check with a warm start at the best atom just below the
    # tolerance 0.1, whose p-hat no draw produced.  A run fails at eps when
    # p_hat < (1 - eps) p*, which needs M draws that all miss the atoms of
    # mass >= (1 - eps) p*: probability (1 - S_eps)^M for their mass S_eps,
    # at most (1 - p*)^M = pareto_delta(p*, 0, M).  On such a run p_hat /
    # (1 - eps) < p*, so the delta it reports at eps exceeds (1 - p*)^M:
    # together, P(fail at eps and reported delta <= a) <= a for every a.
    # pareto_delta(p*, eps, M) itself is no bound on the failure rate: where
    # the mode is alone in its superlevel set a sound run fails with
    # probability (1 - p*)^M, which is larger.  M is set so that about a
    # quarter of the runs miss the mode; most runs on the first table end
    # exact.
    runs = 1000
    table = random_table(n, table_seed, alpha=alpha)
    _, log_pstar = brute_force_map(table)
    p_star = math.exp(log_pstar)
    below = np.flatnonzero(table.log_probs < log_pstar + math.log1p(-0.1))
    near = int(below[np.argmax(table.log_probs[below])])
    near_bits = ((near >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    budget = math.ceil(math.log(0.25) / math.log1p(-p_star))
    miss = (1.0 - p_star) ** budget
    eps_points = (0.02, 0.1, 0.25, 0.5)
    failures = np.zeros(len(eps_points))
    for r in range(runs):
        sol, front = budget_pac_map(table, budget, warm=[near_bits], rng=DrawStream(derive_seed(table_seed, "budget", r)))
        if isinstance(sol.certificate, Exact):
            assert sol.log_p_hat == log_pstar and front.points == ((0.0, 0.0),)
            continue
        for eps, delta in front.points:
            if sol.log_p_hat < log_pstar + math.log1p(-eps):
                assert delta >= miss * (1 - 1e-9), (eps, delta, miss)
        failures += [sol.log_p_hat < log_pstar + math.log1p(-eps) for eps in eps_points]
    for eps, count in zip(eps_points, failures):
        bound = (1.0 - superlevel_mass(table, eps)) ** budget
        assert bound <= miss * (1 + 1e-9)
        assert count / runs <= bound + 3 * math.sqrt(bound * (1 - bound) / runs), (eps, count / runs, bound)
    assert failures[0] > 0  # the check is not vacuous


@pytest.mark.parametrize(
    "make, num_query, seed",
    [
        pytest.param(lambda: generate_random_circuit(16, 3, 2, 101), 12, 101, id="16-3-12-101"),
        pytest.param(lambda: generate_random_circuit(14, 4, 2, 7), 10, 7, id="14-4-10-7"),
        pytest.param(lambda: generate_random_circuit(12, 2, 2, 23), 9, 23, id="12-2-9-23"),
        pytest.param(lambda: rat_spn(12, 3, 3, 2, 31), 9, 31, id="dag-12-9-31"),
    ],
)
def test_pac_certificates_hold_on_circuit_oracles(make, num_query, seed):
    # Criterion 3's check through a circuit oracle, so that a sampler or
    # scoring-plan fault shows as a failure rate; then criterion 5's check
    # of budget_pac_map's frontier, as on tables in
    # test_budget_frontier_with_warm_starts_is_sound.  The truth is the full
    # plan's joint value of every query assignment with the evidence filled
    # in, which shares no plan with the oracle's scoring.
    eps = delta = 0.1
    runs = 150
    params = PacParams(eps, delta)
    c = make()
    n = c.num_vars
    gen = np.random.default_rng(seed)
    query = tuple(sorted(gen.choice(n, num_query, replace=False).tolist()))
    x = sample_joint(c, 1, seed)[0]
    oracle = make_oracle(c, QuerySpec(query, {v: int(x[v]) for v in range(n) if v not in query}))
    full = np.repeat(x[None, :], 2**num_query, axis=0)
    full[:, list(query)] = enumerate_assignments(num_query)
    truth = c.log_root(full)
    threshold = truth.max() + math.log1p(-eps)
    configs = {
        "pac": lambda s: pac_map(oracle, params, rng=s, batch_size=64),
        "smooth": lambda s: smooth_pac_map(oracle, params, exploit_period=10, rng=s, batch_size=64),
    }
    bound = delta + 3 * math.sqrt(delta * (1 - delta) / runs)
    rates = {}
    for name, run in configs.items():
        answers = [run(DrawStream(derive_seed(seed, name, r))).q_hat for r in range(runs)]
        rates[name] = float(np.mean(truth[pack_rows(np.array(answers)).astype(np.intp)] < threshold))
    assert all(rate <= bound for rate in rates.values()), (rates, bound)

    # A budget at which about a quarter of the runs miss the mode.  A run that
    # fails at a frontier point's eps must report a delta of at least
    # (1 - p*)^M there, and the failure rate at eps is at most (1 - S_eps)^M.
    log_cond = truth - np.logaddexp.reduce(truth)
    p_star = math.exp(log_cond.max())
    budget = math.ceil(math.log(0.25) / math.log1p(-p_star))
    miss = (1.0 - p_star) ** budget
    eps_points = (0.02, 0.1, 0.25, 0.5)
    failures = np.zeros(len(eps_points))
    for r in range(runs):
        sol, front = budget_pac_map(oracle, budget, rng=DrawStream(derive_seed(seed, "budget", r)))
        value = log_cond[pack_rows(sol.q_hat[None, :])[0]]
        for point_eps, point_delta in front.points:
            if value < log_cond.max() + math.log1p(-point_eps):
                assert point_delta >= miss * (1 - 1e-9), (point_eps, point_delta, miss)
        failures += [value < log_cond.max() + math.log1p(-e) for e in eps_points]
    for e, count in zip(eps_points, failures):
        fail_bound = (1.0 - np.exp(log_cond)[log_cond >= log_cond.max() + math.log1p(-e)].sum()) ** budget
        assert count / runs <= fail_bound + 3 * math.sqrt(fail_bound * (1 - fail_bound) / runs), (e, count, fail_bound)
    assert failures[0] > 0  # the check is not vacuous


def test_pac_map_cap_yields_budget_certificate():
    table = random_table(10, 123, alpha=1.0)
    sol = pac_map(table, PacParams(0.01, 0.01), cap=50, rng=3)
    assert sol.draws_used == 50
    assert isinstance(sol.certificate, Budget)
    assert len(sol.certificate.front.points) == 100
    assert sol.oracle_calls == 50


def test_pac_map_oracle_calls_count_draws_and_warm():
    table = random_table(6, 5)
    warm = [np.array([0, 0, 0, 0, 0, 0], dtype=np.int8)]
    sol = pac_map(table, PacParams(0.05, 0.05), warm=warm, rng=11)
    assert sol.oracle_calls == sol.draws_used + 1


def test_warm_start_monotone_and_uncounted():
    table = random_table(8, 77)
    bits, logp = brute_force_map(table)
    sol = pac_map(table, PacParams(0.2, 0.2), warm=[bits], rng=5)
    assert sol.log_p_hat >= logp  # mode seeded, never lost
    ref = sequential_adaptive_reference(table, 0.2, 0.2, 9999)  # draws only
    assert sol.draws_used >= 1  # warm atoms do not count as draws


def test_trajectory_point_mass_single_point():
    table = TabularDistribution.from_probs([0.0, 1.0])
    points = []
    pac_map(table, PacParams(0.1, 0.1), rng=2, trajectory=points)
    assert len(points) == 1
    p = points[0]
    assert (p.m, p.p_hat, p.p_check) == (1, 1.0, 0.0)


def test_trajectory_monotone_and_consistent():
    table = random_table(8, 31)
    eps, delta = 0.05, 0.05
    points = []
    sol = pac_map(table, PacParams(eps, delta), rng=6, trajectory=points)
    assert len(points) == sol.draws_used
    p_hats = [p.p_hat for p in points]
    p_checks = [p.p_check for p in points]
    assert all(a <= b + 1e-15 for a, b in zip(p_hats, p_hats[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(p_checks, p_checks[1:]))
    for p in points:
        assert p.stop_time_m == stop_time(p.p_hat, eps, delta)
        assert p.miss_bound == pytest.approx((max(0.0, 1 - p.p_hat / (1 - eps))) ** p.m)
        assert p.p_hat <= 1.0 - p.p_check + 1e-9  # residual sanity


# -- budget solver ------------------------------------------------------------


def test_pareto_delta_closed_form():
    assert pareto_delta(0.5, 0.0, 10) == pytest.approx(2.0**-10)


def test_pareto_delta_monotone_in_eps_and_budget():
    deltas = [pareto_delta(0.3, e, 100) for e in np.linspace(0.0, 0.69, 30)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert pareto_delta(0.3, 0.1, 200) < pareto_delta(0.3, 0.1, 100)


def test_pareto_delta_consistent_with_stop_time():
    # Sampling up to the refreshed stop time always certifies at least the
    # requested failure probability on the frontier.
    assert pareto_delta(0.1, 0.01, 44) <= 0.01
    for p_hat in (0.05, 0.104, 0.3, 0.7):
        for eps, delta in ((0.01, 0.01), (0.1, 0.05), (0.25, 0.2)):
            m = stop_time(p_hat, eps, delta)
            assert pareto_delta(p_hat, eps, m) <= delta


def test_pareto_delta_range_errors():
    with pytest.raises(ValueError):
        pareto_delta(0.5, 0.6, 10)
    with pytest.raises(ValueError):
        pareto_delta(-0.1, 0.1, 10)
    with pytest.raises(ValueError):
        pareto_delta(1.0, 0.0, 10)


def test_underflowing_estimate_gets_a_budget_certificate():
    # The mode of 1100 fair bits has probability 2^-1100, which exp rounds to
    # p_hat = 0: no rule can hold, and the frontier is delta = 1 throughout.
    n = 1100
    text = "".join(f"leaf {v} bernoulli {v} 0.5\n" for v in range(n))
    circuit = parse_circuit(f"spn v1\nvars {n}\n{text}prod {n} {' '.join(map(str, range(n)))}\nroot {n}\n")
    oracle = make_oracle(circuit, QuerySpec(tuple(range(n))))
    assert pareto_delta(0.0, 0.5, 10) == 1.0
    solutions = [budget_pac_map(oracle, 10)[0], naive_map(oracle, 10)]
    for trajectory in (None, []):
        solutions.append(pac_map(oracle, PacParams(0.01, 0.01), cap=10, trajectory=trajectory))
        solutions.append(smooth_pac_map(oracle, PacParams(0.01, 0.01), cap=10, trajectory=trajectory))
        if trajectory is not None:
            assert len(trajectory) == 20
            assert all(p.p_hat == 0.0 and p.stop_time_m == math.inf and p.miss_bound == 1.0 for p in trajectory)
    for sol in solutions:
        assert isinstance(sol.certificate, Budget)
        assert sol.draws_used == 10
        assert sol.log_p_hat == pytest.approx(n * math.log(0.5))
        assert sol.certificate.front.p_hat == 0.0
        assert {delta for _, delta in sol.certificate.front.points} == {1.0}


def test_pareto_front_grid_shape():
    front = pareto_front(0.25, 100, grid=50)
    assert len(front.points) == 50
    assert front.points[0][0] == 0.0
    assert front.points[-1][0] < 1.0 - 0.25
    eps = [p[0] for p in front.points]
    deltas = [p[1] for p in front.points]
    assert all(a < b for a, b in zip(eps, eps[1:]))
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    # no returned point dominates another: eps up, delta strictly down


def test_budget_exhausts_support_returns_exact_degenerate():
    table = TabularDistribution.from_probs([0.6, 0.4])
    sol, front = budget_pac_map(table, 200, rng=3)
    assert isinstance(sol.certificate, Exact)
    assert front.points == ((0.0, 0.0),)
    assert math.exp(sol.log_p_hat) == pytest.approx(0.6)


@pytest.mark.parametrize("grid", [0, -3])
def test_budget_refuses_a_bad_grid_on_the_exact_and_the_budget_path(grid):
    oracle = make_oracle(circuit_from_pmf([0.4, 0.0, 0.25, 0.35]), QuerySpec((0, 1)))
    assert isinstance(budget_pac_map(oracle, 200)[0].certificate, Exact)
    assert isinstance(budget_pac_map(oracle, 1)[0].certificate, Budget)
    for budget in (200, 1):
        with pytest.raises(ValueError, match="grid must be >= 1"):
            budget_pac_map(oracle, budget, grid=grid)


def test_budget_draw_count_and_oracle_calls():
    table = random_table(10, 8)
    warm = [np.zeros(10, dtype=np.int8)]
    sol, front = budget_pac_map(table, 500, warm=warm, rng=2)
    assert sol.draws_used == 500
    assert sol.oracle_calls == 501
    assert front.budget == 500


@pytest.mark.parametrize("share", [0.10, 0.25, 0.50])
def test_stress_budget_solves_sample_and_score_once(share):
    # A stress-budget solve (20000 draws on the n = 256 circuit at |Q| =
    # 26/64/128) fits one batch at the default _CHUNK_BYTES, so bounding
    # the memory of larger budgets costs it no calls.
    c = generate_random_circuit(256, 3, 2, 404)
    query = random_query_partition(256, share, DrawStream(7)).query_vars
    oracle = CountingOracle(make_oracle(c, QuerySpec(query, {v: 0 for v in range(256) if v not in query})))
    budget_pac_map(oracle, 20_000, rng=1)
    assert (oracle.sampled, oracle.scored) == ([20_000], [20_000])


def test_budget_memory_does_not_grow_with_the_budget(monkeypatch):
    # 500-draw batches on a 6-variable table: the traced peak of a budget
    # four times as large stays within 1.25x, where one batch of the whole
    # budget would grow it about fourfold.
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", 6 * 500)
    table = random_table(6, 12, alpha=1.0)
    budget_pac_map(table, 1000, rng=0)  # first-call allocations fall outside the traces
    peaks = []
    for budget in (20_000, 80_000):
        tracemalloc.start()
        try:
            budget_pac_map(table, budget, rng=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_budget_matches_adaptive_state():
    # identical stream: the budget summary must agree with incremental state
    table = random_table(8, 44)
    sol, front = budget_pac_map(table, 300, rng=DrawStream(99))
    draws = table.sample(300, DrawStream(99))
    logps = table.log_prob_rows(draws)
    keys = pack_rows(draws)
    _, first = np.unique(keys, return_index=True)
    mass = np.exp(logps[first]).sum()
    assert math.exp(sol.log_p_hat) == pytest.approx(np.exp(logps).max(), rel=1e-12)
    assert front.p_hat == pytest.approx(math.exp(sol.log_p_hat))


def test_naive_map_point_mass():
    table = TabularDistribution.from_probs([0.0, 1.0])
    sol = naive_map(table, 1, rng=5)
    assert math.exp(sol.log_p_hat) == pytest.approx(1.0)
    assert isinstance(sol.certificate, Budget)
    assert sol.certificate.front.points == ((0.0, 0.0),)


def test_naive_map_uniform_returns_some_atom():
    table = TabularDistribution.from_probs(np.ones(1024))
    sol = naive_map(table, 5, rng=6)
    assert math.exp(sol.log_p_hat) == pytest.approx(2.0**-10)
    assert sol.draws_used == 5


def test_naive_map_discovery_rate_small():
    # Small-scale version of the discovery-complexity bound.
    delta = 0.05
    table = random_table(8, 10, alpha=0.05)
    mu = superlevel_mass(table, 0.2)
    _, log_pstar = brute_force_map(table)
    threshold = log_pstar + math.log1p(-0.2)
    m = math.ceil(math.log(1.0 / delta) / mu)
    hits = sum(
        naive_map(table, m, rng=DrawStream(derive_seed(3, r))).log_p_hat >= threshold
        for r in range(400)
    )
    sigma = math.sqrt(delta * (1 - delta) / 400)
    assert hits / 400 >= (1 - delta) - 3 * sigma


# -- exploitation -------------------------------------------------------------


def test_hamming_ball_examples():
    ball = list(hamming_ball([0, 0, 0], 1))
    assert [b.tolist() for b in ball] == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert [b.tolist() for b in hamming_ball([1, 0], 0)] == [[1, 0]]
    assert sum(1 for _ in hamming_ball(np.zeros(10, dtype=np.int8), 2)) == 56
    with pytest.raises(ValueError):
        list(hamming_ball([0, 0], 3))


def test_hamming_ball_matches_combinations_reference():
    rng = np.random.default_rng(0)
    for n in range(1, 11):
        for radius in range(min(n, 3) + 1):
            center = rng.integers(0, 2, n).astype(np.int8)
            want = []
            for k in range(radius + 1):
                group = []
                for combo in combinations(range(n), k):
                    row = center.copy()
                    row[list(combo)] ^= 1
                    group.append(row.tolist())
                want.extend(sorted(group))
            ball = hamming_ball(center, radius)
            assert ball.dtype == np.int8 and ball.tolist() == want, (n, radius)


def test_hamming_ball_order_distance_then_pattern():
    ball = [b.tolist() for b in hamming_ball([1, 0, 1], 2)]
    dists = [sum(x != y for x, y in zip(b, [1, 0, 1])) for b in ball]
    assert dists == sorted(dists)
    for d in (0, 1, 2):
        group = [b for b, k in zip(ball, dists) if k == d]
        assert group == sorted(group)


def test_full_radius_exploit_terminates_after_first_scan():
    table = random_table(6, 21, alpha=1.0)
    sol = smooth_pac_map(table, PacParams(0.01, 0.01), radius=6, exploit_period=5, rng=7)
    assert sol.draws_used == 5
    assert sol.certificate.kind in ("exact", "det-eps")
    bits, logp = brute_force_map(table)
    assert sol.log_p_hat == pytest.approx(logp, rel=1e-12)


def test_smooth_dominates_pac_on_coupled_streams():
    params = PacParams(0.05, 0.05)
    for seed in range(60):
        table = random_table(8, derive_seed(7, seed), alpha=0.2)
        pac = pac_map(table, params, rng=DrawStream(seed), batch_size=64)
        smooth = smooth_pac_map(
            table, params, radius=1, exploit_period=20, rng=DrawStream(seed), batch_size=64
        )
        assert smooth.log_p_hat >= pac.log_p_hat - 1e-12


def test_smooth_stops_earlier_when_mode_is_adjacent():
    # Mode one bit-flip from a heavy shoulder atom, with more neighbors
    # nearby: the neighborhood scan collects that mass without draws, so the
    # deterministic rule fires sooner than under pure sampling.
    probs = np.full(64, 0.18 / 58)
    probs[1] = 0.32  # mode 000001
    probs[0] = 0.30  # shoulder 000000, Hamming-1 from the mode
    for idx in (3, 5, 9, 17):  # more Hamming-1 neighbors of the mode
        probs[idx] = 0.05
    table = TabularDistribution.from_probs(probs)
    params = PacParams(0.01, 0.01)
    pac_stops, smooth_stops = [], []
    for run in range(500):
        stream_seed = derive_seed(11, run)
        pac_stops.append(pac_map(table, params, rng=DrawStream(stream_seed), batch_size=32).draws_used)
        smooth_stops.append(
            smooth_pac_map(
                table, params, radius=1, exploit_period=5, rng=DrawStream(stream_seed), batch_size=32
            ).draws_used
        )
    assert np.mean(smooth_stops) < np.mean(pac_stops)


class BallRecordingOracle(CountingOracle):
    """CountingOracle that also keeps the centre and size of every radius-1
    Hamming ball it scores."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.balls = []

    def log_prob_rows(self, rows):
        if np.array_equal(rows, hamming_ball(rows[0], 1)):
            self.balls.append((rows[0].tolist(), len(rows)))
        return super().log_prob_rows(rows)


@pytest.mark.parametrize("cap", [45, 450])
def test_a_ball_around_an_unchanged_leader_is_scored_once(cap):
    # A flat table with the mode as warm start: the leader never changes and
    # the run stops at the cap, after cap / 9 exploitation periods.
    table = random_table(12, 4, alpha=5.0)
    mode, _ = brute_force_map(table)
    oracle = BallRecordingOracle(table)
    sol = smooth_pac_map(oracle, PARAMS, exploit_period=9, cap=cap, warm=[mode], rng=3)
    assert isinstance(sol.certificate, Budget) and sol.draws_used == cap
    assert oracle.balls == [(mode.tolist(), 13)]
    assert sol.oracle_calls == sol.draws_used + 1 + 13


def test_consecutive_scored_balls_have_different_centres():
    oracle = BallRecordingOracle(random_table(8, 2, 0.5))
    sol = smooth_pac_map(oracle, PARAMS, eta=0.9, rng=DrawStream(3))
    centres = [centre for centre, _ in oracle.balls]
    assert len(centres) > 1 and all(a != b for a, b in zip(centres, centres[1:]))
    assert sol.oracle_calls == sol.draws_used + sum(size for _, size in oracle.balls)


def test_bernoulli_exploit_mode_runs():
    table = random_table(6, 13)
    sol = smooth_pac_map(table, PacParams(0.05, 0.05), radius=1, exploit_period=50, rng=3, eta=0.05)
    assert sol.certificate.kind in ("exact", "det-eps", "pac")
    sol2 = smooth_pac_map(table, PacParams(0.05, 0.05), radius=1, exploit_period=50, rng=3, eta=0.05)
    assert sol2.draws_used == sol.draws_used and sol2.log_p_hat == sol.log_p_hat


@pytest.mark.parametrize(
    "alpha,params,cap,want",
    [
        # Answers recorded before the coin scan stopped at the cap.
        (0.3, PacParams(0.05, 0.05), 200, ("pac", 15, 15, [0, 1, 1, 1], -1.6563634971122725)),
        (50.0, PacParams(0.01, 0.01), 20, ("budget", 20, 20, [0, 0, 1, 1], -2.5480926364900376)),
    ],
    ids=["pac", "budget"],
)
def test_the_explore_coin_scan_stops_at_the_cap(alpha, params, cap, want, monkeypatch):
    # At eta = 1e-6 the next exploit coin lies about a million coins on; the
    # scan stops once it has read past the cap, where no pass can fall due.
    seeds = []
    uniform_block = DrawStream.uniform_block

    def counted(stream, count, width=1):
        seeds.append(stream.seed)
        return uniform_block(stream, count, width)

    monkeypatch.setattr(DrawStream, "uniform_block", counted)
    sol = smooth_pac_map(random_table(4, 0, alpha), params, cap=cap, rng=3, eta=1e-6)
    assert (sol.certificate.kind, sol.draws_used, sol.oracle_calls, sol.q_hat.tolist(), sol.log_p_hat) == want
    assert 1 <= seeds.count(derive_seed(3, "explore-coin")) <= math.ceil(cap / 64) + 1


_WARM_ORACLE = make_oracle(generate_random_circuit(8, 3, 2, 5), QuerySpec((0, 1, 2, 3), {4: 1}, (5, 6, 7)))
_WARM_TABLE = tabulate_conditional(_WARM_ORACLE)
_WARM_SOLVERS = {
    "pac": lambda oracle, warm: pac_map(oracle, PARAMS, warm=warm, rng=2),
    "smooth": lambda oracle, warm: smooth_pac_map(oracle, PARAMS, warm=warm, rng=2),
    "budget": lambda oracle, warm: budget_pac_map(oracle, 50, warm=warm, rng=2)[0],
}


@pytest.mark.parametrize("kind", ["circuit", "table"])
@pytest.mark.parametrize("solver", list(_WARM_SOLVERS))
def test_warm_starts_that_are_not_0_1_assignments_are_refused(solver, kind):
    # A circuit oracle reads a MARGINAL (-1) entry as summed out, so such a
    # row once scored as a marginal and won an Exact certificate.
    run = _WARM_SOLVERS[solver]
    mode, log_mode = brute_force_map(_WARM_TABLE)
    for warm, message in [
        ([[-1, -1, -1, -1]], "warm start 0 is not a 0/1 assignment: [-1, -1, -1, -1]"),
        ([mode, [1, -1, -1, -1]], "warm start 1 is not a 0/1 assignment: [1, -1, -1, -1]"),
        ([[0.7, 0.2, 1.9, 0.4]], "warm start 0 is not a 0/1 assignment: [0.7, 0.2, 1.9, 0.4]"),
        ([mode, mode, np.array([0, 1, 2, 0])], "warm start 2 is not a 0/1 assignment: [0, 1, 2, 0]"),
    ]:
        oracle = CountingOracle(_WARM_ORACLE if kind == "circuit" else _WARM_TABLE)
        with pytest.raises(ValueError) as err:
            run(oracle, warm)
        assert (type(err.value), str(err.value)) == (ValueError, message)
        assert oracle.sampled == oracle.scored == []
    # 0/1 entries of any dtype are kept: the mode as floats is the mode.
    sol = run(_WARM_ORACLE if kind == "circuit" else _WARM_TABLE, [mode.astype(float)])
    assert (sol.q_hat.tolist(), sol.log_p_hat) == (mode.tolist(), pytest.approx(log_mode, abs=1e-12))


# -- sample set ---------------------------------------------------------------


def test_sample_set_dedup_and_ties():
    state = SampleSet()
    bits = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int8)
    logs = np.log([0.4, 0.4, 0.4])
    fold = state.fold(bits, logs, draws=False)
    assert len(state.atoms) == 2
    assert state.m == 0
    assert len(fold.m) == state.rows == 3  # no stopping rule: every row commits
    assert state.best_bits.tolist() == [0, 1]  # first atom attaining the max
    assert math.exp(state.log_total_mass) == pytest.approx(0.8)
    assert state.residual() == pytest.approx(0.2)


def test_sample_set_fold_commits_prefix_through_first_stop():
    state = SampleSet()
    state.fold(np.array([[0, 0]], dtype=np.int8), np.log([0.1]), draws=False)
    bits = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int8)
    fold = state.fold(bits, np.log([0.2, 0.3, 0.4]), draws=True, stop=lambda p_hat, p_check, m: m >= 2)
    assert fold.m.tolist() == [1, 2] and fold.grant == 1
    assert fold.p_hat.tolist() == pytest.approx([0.2, 0.3])
    assert fold.p_check.tolist() == pytest.approx([0.7, 0.4])
    assert (state.m, state.rows, len(state.atoms)) == (2, 3, 3)
    assert state.atoms == {0b00: 0, 0b01: 1, 0b10: 2}  # each key maps to the row that brought it in
    assert state.best_bits.tolist() == [1, 0]  # the uncommitted [1, 1] never counts
    assert math.exp(state.log_total_mass) == pytest.approx(0.6)


def test_sample_set_fold_checks_its_block_before_it_changes_state():
    state = SampleSet()
    state.fold(np.array([[0, 1], [1, 0]], dtype=np.int8), np.log([0.2, 0.3]), draws=True)

    def snapshot():
        return (dict(state.atoms), state.m, state.rows, state.log_total_mass, state.best_bits.tolist(), state.best_log_prob)

    before = snapshot()
    fold = state.fold(np.empty((0, 2), dtype=np.int8), np.empty(0), draws=True)
    assert fold.p_hat.size == fold.p_check.size == fold.m.size == 0 and fold.grant == 0
    assert snapshot() == before
    bits = np.array([[0, 0], [1, 1], [0, 1]], dtype=np.int8)
    for log_probs in (np.log([0.1]), np.log([0.1, 0.2]), np.log([[0.1], [0.2], [0.1]]), np.float64(-1.0)):
        with pytest.raises(ValueError, match="shape"):
            state.fold(bits, log_probs, draws=True)
        assert snapshot() == before
    # A NaN or +inf score is refused, naming the first bad row; -inf is a score.
    for log_probs, message in [
        ([np.nan, -1.0, -2.0], "log_probs row 0 is nan"),
        ([-1.0, -np.inf, np.inf], "log_probs row 2 is inf"),
        ([-1.0, np.inf, np.nan], "log_probs row 1 is inf"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            state.fold(bits, np.array(log_probs), draws=True, stop=lambda p_hat, p_check, m: m > 0)
        assert snapshot() == before

    # The block's keys enter the set before `stop` runs; a stop that raises
    # takes them back out.
    def failing_stop(p_hat, p_check, m):
        raise RuntimeError("stop failed")

    with pytest.raises(RuntimeError, match="stop failed"):
        state.fold(bits, np.log([0.1, 0.2, 0.1]), draws=True, stop=failing_stop)
    assert snapshot() == before


def reference_fold(state, bits, log_probs, draws, stop):
    """SampleSet.fold one row at a time, with scalar np.logaddexp, np.maximum,
    np.exp and np.expm1 steps in the order the fold's accumulates take them.

    Returns the Fold's arrays and grant, then the state fields it leaves;
    each atom maps to the index, counted over every committed row of the
    set, of the row that first brought it in.  `stop` sees the arrays of
    every row, as it does in SampleSet.fold.
    """
    keys = pack_rows(bits).tolist()
    seen = dict(state.atoms)
    mass, best = state.log_total_mass, state.best_log_prob
    p_hat, p_check, m, masses, bests, best_rows = [], [], [], [], [], []
    best_row = None
    for i, key in enumerate(keys):
        new = key not in seen
        if new:
            seen[key] = state.rows + i
        mass = np.logaddexp(mass, log_probs[i] if new else -np.inf)
        if np.maximum(best, log_probs[i]) > best:
            best_row = i
        best = np.maximum(best, log_probs[i])
        p_hat.append(np.exp(best))
        p_check.append(np.maximum(-np.expm1(np.minimum(mass, 0.0)), 0.0))
        m.append(state.m + (i + 1 if draws else 0))
        masses.append(mass)
        bests.append(best)
        best_rows.append(best_row)
    p_hat, p_check, m = np.array(p_hat), np.array(p_check), np.array(m, dtype=np.int64)
    codes = stop(p_hat, p_check, m) if stop is not None else np.zeros(len(keys), dtype=np.int64)
    hits = [i for i, code in enumerate(codes) if code != 0]
    last = hits[0] if hits else len(keys) - 1
    if bests[last] > state.best_log_prob:
        best_bits, best_log_prob = bits[best_rows[last]].tobytes(), float(bests[last])
    else:
        best_bits = None if state.best_bits is None else state.best_bits.tobytes()
        best_log_prob = state.best_log_prob
    return (
        p_hat[: last + 1].tobytes(),
        p_check[: last + 1].tobytes(),
        m[: last + 1].tobytes(),
        int(codes[last]),
        {key: first for key, first in seen.items() if first <= state.rows + last},
        int(m[last]),
        state.rows + last + 1,
        np.float64(masses[last]).tobytes(),
        best_bits,
        np.float64(best_log_prob).tobytes(),
    )


def _fold_outcome(state, bits, log_probs, draws, stop):
    fold = state.fold(bits, log_probs, draws=draws, stop=stop)
    assert (fold.p_hat.dtype, fold.p_check.dtype, fold.m.dtype) == (np.float64, np.float64, np.int64)
    return (
        fold.p_hat.tobytes(),
        fold.p_check.tobytes(),
        fold.m.tobytes(),
        fold.grant,
        state.atoms,
        state.m,
        state.rows,
        np.float64(state.log_total_mass).tobytes(),
        None if state.best_bits is None else state.best_bits.tobytes(),
        np.float64(state.best_log_prob).tobytes(),
    )


def _stop_at(row, value=2):
    """A stop whose first nonzero code is `value` at `row`, with a later one after it."""

    def stop(p_hat, p_check, m):
        codes = np.zeros(len(m), dtype=np.int8)
        codes[row] = value
        codes[row + 1 :: 2] = 3
        return codes

    return stop


# Pool atoms 0 and 1 are in the set before the block; atom 6 scores -inf.
# With a stop at row 7 the block's tail holds atoms 4 and 5, first seen there.
_POOL_PROBS = (0.05, 0.1, 0.02, 0.2, 0.15, 0.3, 0.0)
_BLOCK = (2, 0, 2, 6, 3, 1, 6, 3, 4, 5, 4, 3)
_STOPS = {
    "none": None,
    "row-0": _stop_at(0, 1),
    "row-7": _stop_at(7),
    "last-row": _stop_at(len(_BLOCK) - 1, 3),
    "rules": _Rules(PacParams(0.3, 0.3)).grant,
}


@pytest.mark.parametrize("stop", list(_STOPS))
@pytest.mark.parametrize("draws", [True, False])
# Weighted-sum keys up to 24 columns, packed uint64 words up to 64, byte keys past it.
@pytest.mark.parametrize("width", [8, 24, 25, 64, 65, 128])
@pytest.mark.parametrize("warm", [False, True])
def test_sample_set_fold_matches_a_row_by_row_reference_byte_for_byte(warm, width, draws, stop):
    rng = np.random.default_rng(width)
    pool = rng.integers(0, 2, (len(_POOL_PROBS), width)).astype(np.int8)
    assert len(set(pack_rows(pool).tolist())) == len(pool)
    with np.errstate(divide="ignore"):
        pool_scores = np.log(np.array(_POOL_PROBS))
    state = SampleSet()
    if warm:
        state.fold(pool[[0, 1, 0]], pool_scores[[0, 1, 0]], draws=True)
    bits, log_probs = pool[list(_BLOCK)], pool_scores[list(_BLOCK)]
    want = reference_fold(state, bits, log_probs, draws, _STOPS[stop])
    assert _fold_outcome(state, bits, log_probs, draws, _STOPS[stop]) == want
    # A block of -inf rows only (no mass, no leader), and one whose atoms hold
    # all the mass, where p-check is +0.0, not -0.0.
    for rows, scores in [(pool[[6, 6]], np.full(2, -np.inf)), (pool[[0, 1, 0]], np.log([0.5, 0.5, 0.5]))]:
        want = reference_fold(SampleSet(), rows, scores, draws, None)
        assert _fold_outcome(SampleSet(), rows, scores, draws, None) == want


def test_sample_set_memory_per_distinct_atom_is_bounded():
    # 20000 distinct rows at |Q| = 128: each atom holds a 16-byte key object,
    # its dict entry and its first-row index.  The dict kept 110 B per atom
    # here; the set it replaced, 154 B.
    rows = np.random.default_rng(128).integers(0, 2, size=(20_000, 128)).astype(np.int8)
    scores = np.full(len(rows), -30.0)
    SampleSet().fold(rows[:100], scores[:100], draws=True)  # first-call allocations fall outside the trace
    tracemalloc.start()
    try:
        state = SampleSet()
        state.fold(rows, scores, draws=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(state.atoms) == len(rows)
    assert held <= 128 * len(state.atoms), held / len(state.atoms)


def test_duplicates_increment_m_but_not_mass():
    table = TabularDistribution.from_probs([0.9, 0.1])
    sol = pac_map(table, PacParams(0.01, 0.01), cap=30, rng=1)
    # only two distinct atoms exist; mass can never exceed 1
    assert sol.draws_used <= 30
    assert math.exp(sol.log_p_hat) <= 1.0 + 1e-9


def test_solution_rescorable():
    table = random_table(8, 99)
    sol = pac_map(table, PacParams(0.1, 0.1), rng=12)
    assert table.log_prob_rows([sol.q_hat])[0] == sol.log_p_hat


# -- refusals -----------------------------------------------------------------

_TABLE = TabularDistribution.from_probs([0.1, 0.2, 0.3, 0.4])
_PARAMS = PacParams(0.1, 0.1)


class _BadScores:
    """_TABLE with some scores replaced: NaN on the first row of every call
    ("nan-first"), NaN on every row ("nan-all"), or +inf on the fourth row
    scored ("inf-once").  Solvers once certified such scores, or never
    stopped on them."""

    num_query = _TABLE.num_query

    def __init__(self, bad: str):
        self.bad, self.scored = bad, 0

    def sample(self, count, stream):
        return _TABLE.sample(count, stream)

    def log_prob_rows(self, rows):
        scores = _TABLE.log_prob_rows(rows)
        if self.bad == "nan-first":
            scores[0] = np.nan
        elif self.bad == "nan-all":
            scores[:] = np.nan
        elif self.scored <= 3 < self.scored + len(scores):
            scores[3 - self.scored] = np.inf
        self.scored += len(scores)
        return scores


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: pareto_delta(0.5, 0.1, 0), "budget must be >= 1", id="pareto-delta-budget"),
        pytest.param(lambda: pareto_front(0.5, 10, grid=0), "grid must be >= 1", id="pareto-front-grid"),
        pytest.param(lambda: pac_map(_TABLE, _PARAMS, cap=0), "cap must be >= 1", id="pac-cap"),
        pytest.param(lambda: pac_map(_TABLE, _PARAMS, batch_size=0), "batch_size must be >= 1", id="pac-batch"),
        pytest.param(lambda: smooth_pac_map(_TABLE, _PARAMS, radius=0), "radius must be >= 1", id="smooth-radius"),
        pytest.param(
            lambda: smooth_pac_map(_TABLE, _PARAMS, exploit_period=0), "exploit_period must be >= 1", id="smooth-period"
        ),
        pytest.param(lambda: smooth_pac_map(_TABLE, _PARAMS, eta=0.0), "eta must lie in (0, 1)", id="smooth-eta-0"),
        pytest.param(lambda: smooth_pac_map(_TABLE, _PARAMS, eta=1.0), "eta must lie in (0, 1)", id="smooth-eta-1"),
        pytest.param(lambda: budget_pac_map(_TABLE, 0), "budget must be >= 1", id="budget-0"),
        pytest.param(lambda: naive_map(_TABLE, 0), "draws must be >= 1", id="naive-0"),
        pytest.param(lambda: pareto_delta(0.5, 0.1, 2.5), "budget must be an integer, not 2.5", id="pareto-delta-2.5"),
        pytest.param(lambda: pareto_front(0.5, 10, 2.5), "grid must be an integer, not 2.5", id="pareto-front-2.5"),
        pytest.param(lambda: hamming_ball([0, 1], 1.5), "radius must be an integer, not 1.5", id="ball-1.5"),
        pytest.param(lambda: pac_map(_TABLE, _PARAMS, cap=2.5), "cap must be an integer, not 2.5", id="pac-cap-2.5"),
        pytest.param(
            lambda: pac_map(_TABLE, _PARAMS, batch_size=2.5),
            "batch_size must be an integer, not 2.5",
            id="pac-batch-2.5",
        ),
        pytest.param(lambda: pac_map(_TABLE, _PARAMS, rng=1.5), "seed must be an integer, not 1.5", id="pac-seed-1.5"),
        pytest.param(
            lambda: smooth_pac_map(_TABLE, _PARAMS, radius=1.5),
            "radius must be an integer, not 1.5",
            id="smooth-radius-1.5",
        ),
        pytest.param(
            lambda: smooth_pac_map(_TABLE, _PARAMS, exploit_period=2.5),
            "exploit_period must be an integer, not 2.5",
            id="smooth-period-2.5",
        ),
        pytest.param(lambda: budget_pac_map(_TABLE, 10.5), "budget must be an integer, not 10.5", id="budget-10.5"),
        pytest.param(
            lambda: budget_pac_map(_TABLE, 10, grid=2.5), "grid must be an integer, not 2.5", id="budget-grid-2.5"
        ),
        pytest.param(lambda: naive_map(_TABLE, 2.5), "draws must be an integer, not 2.5", id="naive-2.5"),
        *[
            pytest.param(call, match, id=f"{solver}-{bad}")
            for bad, match in [
                ("nan-first", "log_probs row 0 is nan"),
                ("nan-all", "log_probs row 0 is nan"),
                ("inf-once", "log_probs row 3 is inf"),
            ]
            for solver, call in [
                ("pac", lambda bad=bad: pac_map(_BadScores(bad), _PARAMS)),
                ("smooth", lambda bad=bad: smooth_pac_map(_BadScores(bad), _PARAMS)),
                ("budget", lambda bad=bad: budget_pac_map(_BadScores(bad), 50)),
            ]
        ],
        pytest.param(lambda: hamming_ball([2, 0], 1), "centre must be a 1-D vector of 0/1 entries, not [2, 0]", id="ball-2"),
        pytest.param(
            lambda: hamming_ball([0.7, 1], 1), "centre must be a 1-D vector of 0/1 entries, not [0.7, 1.0]", id="ball-0.7"
        ),
        pytest.param(
            lambda: hamming_ball([[0, 1], [1, 0]], 1),
            "centre must be a 1-D vector of 0/1 entries, not [[0, 1], [1, 0]]",
            id="ball-2d",
        ),
        pytest.param(lambda: hamming_ball(1, 0), "centre must be a 1-D vector of 0/1 entries, not 1", id="ball-0d"),
    ],
)
def test_solver_refusals(call, match):
    with pytest.raises(ValueError, match=re.escape(match)) as err:
        call()
    assert type(err.value) is ValueError
