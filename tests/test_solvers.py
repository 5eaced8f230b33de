import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacmap.circuit import pack_rows
from pacmap.inference import TabularDistribution, brute_force_map, superlevel_mass
from pacmap.rng import DrawStream, derive_seed
from pacmap.solvers import (
    Budget,
    DeterministicEps,
    Exact,
    PacParams,
    SampleSet,
    budget_pac_map,
    hamming_ball,
    naive_map,
    pac_map,
    pareto_delta,
    pareto_front,
    smooth_pac_map,
    stop_time,
)


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
        lp = table.conditional_log_prob(bits)
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
def test_budget_solvers_match_engine_at_every_batch_size(warm):
    # budget_pac_map draws its whole budget in one batch.  Where no stopping
    # rule fires first, the adaptive engine capped at the same budget must
    # commit the same draws and reach the same answer at every batch size.
    table = TabularDistribution.from_probs(np.random.default_rng(4).dirichlet(np.full(2**10, 5.0)))
    rows = [np.zeros(10, dtype=np.int8)] if warm else None
    sol, _ = budget_pac_map(table, 400, warm=rows, rng=DrawStream(3))
    assert isinstance(sol.certificate, Budget)
    want = _outcome(sol)
    if not warm:
        assert _outcome(naive_map(table, 400, rng=DrawStream(3))) == want
    for bs in BATCH_SIZES:
        got = pac_map(table, PacParams(0.01, 0.01), cap=400, warm=rows, rng=DrawStream(3), batch_size=bs)
        assert _outcome(got) == want


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
        pareto_delta(0.0, 0.1, 10)


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


def test_budget_draw_count_and_oracle_calls():
    table = random_table(10, 8)
    warm = [np.zeros(10, dtype=np.int8)]
    sol, front = budget_pac_map(table, 500, warm=warm, rng=2)
    assert sol.draws_used == 500
    assert sol.oracle_calls == 501
    assert front.budget == 500


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


def test_bernoulli_exploit_mode_runs():
    table = random_table(6, 13)
    sol = smooth_pac_map(table, PacParams(0.05, 0.05), radius=1, exploit_period=50, rng=3, eta=0.05)
    assert sol.certificate.kind in ("exact", "det-eps", "pac")
    sol2 = smooth_pac_map(table, PacParams(0.05, 0.05), radius=1, exploit_period=50, rng=3, eta=0.05)
    assert sol2.draws_used == sol.draws_used and sol2.log_p_hat == sol.log_p_hat


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
    assert state.best_bits.tolist() == [1, 0]  # the uncommitted [1, 1] never counts
    assert math.exp(state.log_total_mass) == pytest.approx(0.6)


def test_duplicates_increment_m_but_not_mass():
    table = TabularDistribution.from_probs([0.9, 0.1])
    sol = pac_map(table, PacParams(0.01, 0.01), cap=30, rng=1)
    # only two distinct atoms exist; mass can never exceed 1
    assert sol.draws_used <= 30
    assert math.exp(sol.log_p_hat) <= 1.0 + 1e-9


def test_solution_rescorable():
    table = random_table(8, 99)
    sol = pac_map(table, PacParams(0.1, 0.1), rng=12)
    assert table.conditional_log_prob(sol.q_hat) == sol.log_p_hat
