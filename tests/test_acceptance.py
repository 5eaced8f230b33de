"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  The statistical criteria use frozen seeds, so outcomes are
reproducible run to run.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from pacmap.baselines import arg_max_product, independent_map, max_product
from pacmap.bench import (
    BenchConfig,
    draw_evidence,
    random_query_partition,
    run_benchmark,
    write_records_csv,
)
from pacmap.circuit import (
    circuit_from_pmf,
    generate_deterministic_circuit,
    generate_random_circuit,
    pack_rows,
)
from pacmap.inference import (
    QuerySpec,
    TabularDistribution,
    brute_force_map,
    make_oracle,
    min_entropy,
    superlevel_mass,
    tabulate_conditional,
)
from pacmap.rng import DrawStream, derive_seed
from pacmap.solvers import (
    PacParams,
    budget_pac_map,
    naive_map,
    pac_map,
    pareto_delta,
    smooth_pac_map,
    stop_time,
)
from conftest import ref_conditional_prob, total_variation

EPS = DELTA = 0.01
MASTER = 20250810

CORPUS_SPECS = (
    ("gen:n=16/depth=3/fanout=2/seed=101", 16, 3, 2, 101),
    ("gen:n=32/depth=3/fanout=2/seed=202", 32, 3, 2, 202),
    ("gen:n=64/depth=3/fanout=2/seed=303", 64, 3, 2, 303),
)
PROPORTIONS = (0.10, 0.25, 0.50)
TRIALS = 10


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_instances():
    """The desk-scale benchmark corpus: 3 circuits x 3 proportions x 10 trials."""
    instances = []
    for ci, (dataset, n, depth, fanout, gseed) in enumerate(CORPUS_SPECS):
        circuit = generate_random_circuit(n, depth, fanout, gseed)
        for pi, prop in enumerate(PROPORTIONS):
            for trial in range(TRIALS):
                base = derive_seed(MASTER, ci, pi, trial)
                part = random_query_partition(n, prop, DrawStream(derive_seed(base, "partition")))
                e_vars = tuple(v for v in range(n) if v not in set(part.query_vars))
                evidence = draw_evidence(circuit, e_vars, "model", DrawStream(derive_seed(base, "evidence")))
                spec = QuerySpec(part.query_vars, evidence, ())
                instances.append((dataset, circuit, spec, base))
    return instances


@pytest.fixture(scope="module")
def soundness_suite():
    """50 tabular instances x 2000 adaptive runs, shared by criteria 3 and 4."""
    results = []
    dims = (6, 8, 10)
    alphas = (0.05, 0.15, 0.5, 1.0)
    params = PacParams(EPS, DELTA)
    for inst in range(50):
        n = dims[inst % len(dims)]
        alpha = alphas[inst % len(alphas)]
        gen = np.random.default_rng(derive_seed(MASTER, "suite", inst))
        table = TabularDistribution.from_probs(gen.dirichlet(np.full(2**n, alpha)))
        _, log_pstar = brute_force_map(table)
        threshold = log_pstar + math.log1p(-EPS)
        failures = 0
        draws = np.empty(2000, dtype=np.int64)
        for run in range(2000):
            sol = pac_map(table, params, rng=DrawStream(derive_seed(MASTER, inst, run)), batch_size=2048)
            draws[run] = sol.draws_used
            if sol.log_p_hat < threshold:
                failures += 1
        results.append(
            {
                "n": n,
                "p_star": math.exp(log_pstar),
                "failure_rate": failures / 2000,
                "draws": draws,
            }
        )
    return results


# -- criteria -----------------------------------------------------------------


def test_criterion_1_stop_time_anchor():
    value = stop_time(0.104, EPS, DELTA)
    _report("criterion-1 stop-time anchor", value == 44, f"stop_time(0.104, 0.01, 0.01) = {value}")


def test_criterion_2_uniform_worst_case():
    table = TabularDistribution.from_probs(np.ones(1024))
    want = math.ceil(1024 * (1 - EPS) * math.log(1 / DELTA))
    stops = set()
    for seed in range(50):
        sol = pac_map(table, PacParams(EPS, DELTA), rng=DrawStream(derive_seed(MASTER, "u", seed)))
        stops.add(sol.draws_used)
    _report(
        "criterion-2 uniform worst case",
        stops == {want},
        f"all 50 seeds stopped at {sorted(stops)} (want {{{want}}})",
    )


def test_criterion_3_pac_soundness(soundness_suite):
    bound = DELTA + 3 * math.sqrt(DELTA * (1 - DELTA) / 2000)
    worst = max(r["failure_rate"] for r in soundness_suite)
    ok = all(r["failure_rate"] <= bound for r in soundness_suite)
    _report(
        "criterion-3 pac soundness",
        ok,
        f"worst per-instance failure rate {worst:.4f} <= {bound:.4f} over 50 instances x 2000 runs",
    )


def test_criterion_4_certification_complexity(soundness_suite):
    total = ok_runs = 0
    for r in soundness_suite:
        h = min_entropy(r["p_star"])
        cap = math.ceil(2.0**h * math.log(1 / DELTA)) + 1
        ok_runs += int((r["draws"] <= cap).sum())
        total += len(r["draws"])
    frac = ok_runs / total
    _report(
        "criterion-4 certification complexity",
        frac >= 1 - DELTA,
        f"{frac:.4f} of {total} runs finished within ceil(2^h ln(1/delta)) + 1 (need >= {1 - DELTA})",
    )


def test_criterion_5_pareto_validity():
    n, budget, runs = 12, 10**4, 5000
    p_star = 0.02
    probs = np.full(2**n, (1.0 - p_star) / (2**n - 1))
    probs[0] = p_star
    table = TabularDistribution.from_probs(probs)
    _, log_pstar = brute_force_map(table)
    eps_points = (0.1, 0.25, 0.5)
    failures = {eps: 0 for eps in eps_points}
    for run in range(runs):
        sol, front = budget_pac_map(table, budget, rng=DrawStream(derive_seed(MASTER, "pareto", run)))
        for eps in eps_points:
            if sol.log_p_hat < log_pstar + math.log1p(-eps):
                failures[eps] += 1
    ok = True
    details = []
    for eps in eps_points:
        delta = pareto_delta(p_star, eps, budget)
        sigma = math.sqrt(max(delta * (1 - delta), 1e-12) / runs)
        rate = failures[eps] / runs
        ok &= rate <= delta + 3 * sigma
        details.append(f"eps={eps}: rate={rate:.2e} bound={delta + 3 * sigma:.2e}")
    deltas = [pareto_delta(p_star, eps, budget) for eps in eps_points]
    ok &= all(a > b for a, b in zip(deltas, deltas[1:]))
    # A representative frontier is strictly monotone wherever delta is
    # representable; beyond that the exact power underflows to 0.0 and the
    # comparison can only be non-strict.
    _, front = budget_pac_map(table, budget, rng=DrawStream(derive_seed(MASTER, "pareto", 0)))
    fd = [d for _, d in front.points]
    positive = [d for d in fd if d > 0.0]
    ok &= all(a > b for a, b in zip(positive, positive[1:]))
    ok &= all(a >= b for a, b in zip(fd, fd[1:]))
    _report("criterion-5 pareto validity", ok, "; ".join(details))


def test_criterion_6_budget_linearity():
    circuit = generate_random_circuit(32, 3, 2, 202)
    part = random_query_partition(32, 0.5, DrawStream(derive_seed(MASTER, "lin", 0)))
    e_vars = tuple(v for v in range(32) if v not in set(part.query_vars))
    evidence = draw_evidence(circuit, e_vars, "model", DrawStream(derive_seed(MASTER, "lin", 1)))
    oracle = make_oracle(circuit, QuerySpec(part.query_vars, evidence, ()))
    budgets = (10**4, 10**5, 10**6)
    times = []
    calls_ok = True
    # Each budget's time is the best of three identical runs, so that host
    # noise and one-off costs weigh less against the per-draw work.
    for m in budgets:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            sol, _ = budget_pac_map(oracle, m, rng=DrawStream(derive_seed(MASTER, "lin", m)))
            runs.append(time.perf_counter() - t0)
            calls_ok &= sol.oracle_calls == m
        times.append(min(runs))
    slope = float(np.polyfit(np.log(budgets), np.log(times), 1)[0])
    _report(
        "criterion-6 budget linearity",
        0.8 <= slope <= 1.2 and calls_ok,
        f"log-log slope {slope:.3f} over times {[f'{t:.2f}s' for t in times]}, oracle calls exact: {calls_ok}",
    )


def test_criterion_7_discovery_complexity():
    runs = 2000
    ok = True
    worst = 1.0
    for inst in range(20):
        gen = np.random.default_rng(derive_seed(MASTER, "naive", inst))
        table = TabularDistribution.from_probs(gen.dirichlet(np.full(2**8, 0.05)))
        mu = superlevel_mass(table, EPS)
        _, log_pstar = brute_force_map(table)
        threshold = log_pstar + math.log1p(-EPS)
        m = math.ceil(math.log(1 / DELTA) / mu)
        hits = sum(
            naive_map(table, m, rng=DrawStream(derive_seed(MASTER, "naive", inst, run))).log_p_hat
            >= threshold
            for run in range(runs)
        )
        sigma = math.sqrt(DELTA * (1 - DELTA) / runs)
        rate = hits / runs
        worst = min(worst, rate)
        ok &= rate >= (1 - DELTA) - 3 * sigma
    _report(
        "criterion-7 discovery complexity",
        ok,
        f"worst per-instance success rate {worst:.4f} >= {(1 - DELTA) - 3 * math.sqrt(DELTA * (1 - DELTA) / runs):.4f}",
    )


def test_criterion_8_exploitation_dominance(corpus_instances):
    params = PacParams(EPS, DELTA)
    cap = 20_000
    coupled_ok = warm_ok = 0
    for dataset, circuit, spec, base in corpus_instances:
        oracle = make_oracle(circuit, spec)
        seed = derive_seed(base, "method", "paired")
        plain = pac_map(oracle, params, cap=cap, rng=DrawStream(seed))
        smooth = smooth_pac_map(oracle, params, radius=1, exploit_period=100, cap=cap, rng=DrawStream(seed))
        coupled_ok += int(smooth.log_p_hat >= plain.log_p_hat)
        amp = arg_max_product(circuit, spec, oracle=oracle)
        warm = smooth_pac_map(
            oracle, params, radius=1, exploit_period=100, cap=cap,
            warm=[amp.q_hat], rng=DrawStream(derive_seed(base, "method", "warm")),
        )
        warm_ok += int(warm.log_p_hat >= amp.log_p_hat)
    total = len(corpus_instances)
    _report(
        "criterion-8 exploitation dominance",
        coupled_ok == total and warm_ok == total,
        f"coupled {coupled_ok}/{total}, warm-start {warm_ok}/{total}",
    )


def test_criterion_9_oracle_sampler_fidelity():
    worst_tv = 0.0
    mmap_ok = True
    for pair in range(20):
        n = 8 + 2 * (pair % 2)  # 8 or 10 variables
        circuit = generate_random_circuit(n, 3, 2, derive_seed(MASTER, "fid", pair))
        q = tuple(range(min(8, n - 2)))
        e_vars = (n - 2, n - 1)
        evidence = draw_evidence(circuit, e_vars, "model", DrawStream(derive_seed(MASTER, "fid-e", pair)))
        nuisance = tuple(v for v in range(n) if v not in q and v not in e_vars)
        spec = QuerySpec(q, evidence, nuisance)
        oracle = make_oracle(circuit, spec)
        table = tabulate_conditional(oracle)
        draws = oracle.sample(10**6, DrawStream(derive_seed(MASTER, "fid-s", pair)))
        emp = np.bincount(pack_rows(draws).astype(np.int64), minlength=2 ** len(q)) / 1e6
        worst_tv = max(worst_tv, total_variation(emp, np.exp(table.log_probs)))
        if pair < 4:  # enumeration cross-check, including nonempty nuisance sets
            for q_bits in ((0,) * len(q), (1,) * len(q), tuple((i + pair) % 2 for i in range(len(q)))):
                want = math.log(ref_conditional_prob(circuit, q, q_bits, evidence))
                got = oracle.conditional_log_prob(q_bits)
                mmap_ok &= math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    _report(
        "criterion-9 oracle/sampler fidelity",
        worst_tv <= 0.01 and mmap_ok,
        f"worst TV over 20 pairs {worst_tv:.4f} <= 0.01, enumeration agreement: {mmap_ok}",
    )


def test_criterion_10_baseline_sanity(corpus_instances):
    exact_ok = True
    for n, seed in ((4, 0), (6, 1), (8, 2), (10, 3)):
        circuit = generate_deterministic_circuit(n, seed)
        spec = QuerySpec(tuple(range(n)))
        bits, log_pstar = brute_force_map(tabulate_conditional(make_oracle(circuit, spec)))
        mp = max_product(circuit, spec)
        amp = arg_max_product(circuit, spec)
        exact_ok &= mp.q_hat.tolist() == bits.tolist() and amp.q_hat.tolist() == bits.tolist()
        exact_ok &= math.isclose(mp.log_p_hat, log_pstar, rel_tol=1e-9)
        exact_ok &= math.isclose(amp.log_p_hat, log_pstar, rel_tol=1e-9)

    dominance = 0
    for dataset, circuit, spec, base in corpus_instances:
        oracle = make_oracle(circuit, spec)
        mp = max_product(circuit, spec, oracle=oracle)
        amp = arg_max_product(circuit, spec, oracle=oracle)
        dominance += int(amp.log_p_hat >= mp.log_p_hat)

    counter = circuit_from_pmf([0.4, 0.0, 0.25, 0.35])
    ind = independent_map(make_oracle(counter, QuerySpec((0, 1))))
    gap_ok = ind.q_hat.tolist() == [1, 0] and math.isclose(math.exp(ind.log_p_hat), 0.25, rel_tol=1e-9)

    total = len(corpus_instances)
    _report(
        "criterion-10 baseline sanity",
        exact_ok and dominance == total and gap_ok,
        f"deterministic-exact {exact_ok}, amp>=mp {dominance}/{total}, independent gap 0.25 vs 0.4 {gap_ok}",
    )


def test_criterion_11_benchmark_reproducibility(tmp_path):
    cfg = BenchConfig(
        circuits=("gen:n=16/depth=3/fanout=2/seed=101", "gen:n=16/depth=2/fanout=2/seed=55"),
        query_proportions=(0.25, 0.5),
        trials=2,
        methods=("pac", "smooth", "budget", "naive", "mp", "amp", "ind"),
        sample_cap=2000,
        batch_size=500,
        seed=11,
    )

    def run_csv() -> str:
        buf = io.StringIO()
        write_records_csv(run_benchmark(cfg), buf)
        return buf.getvalue()

    first, second = run_csv(), run_csv()

    def mask_runtime(text: str) -> str:
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index("runtime_ms")
        for row in rows[1:]:
            row[col] = ""
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()

    identical = mask_runtime(first) == mask_runtime(second)
    # wall-clock measurements are the one intrinsically non-reproducible
    # column; everything else must match byte for byte
    _report(
        "criterion-11 benchmark reproducibility",
        identical and first.splitlines()[0] == "dataset,trial,query_prop,method,log_p_hat,rank,runtime_ms,cert,epsilon,delta,draws,timed_out",
        f"byte-identical outside runtime_ms: {identical}",
    )
