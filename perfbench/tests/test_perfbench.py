"""Tests of the benchmark itself: proxy transparency, determinism, gate, metrics.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from pacmap.bench import BenchConfig, draw_evidence, run_benchmark  # noqa: E402
from pacmap.circuit import evaluate_marginal, generate_random_circuit  # noqa: E402
from pacmap.inference import QuerySpec, TabularDistribution, make_oracle  # noqa: E402
from pacmap.rng import DrawStream  # noqa: E402
from pacmap.solvers import PacParams, budget_pac_map, pac_map, smooth_pac_map  # noqa: E402

import run as bench  # noqa: E402
from checks import check_pass, fingerprint, reference_log_value, rescore  # noqa: E402
from host import NEAREST, REFERENCE_S, HostSpeed  # noqa: E402
from tracing import TimedOracle, Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_CIRCUITS,
    WORKLOADS,
    Answer,
    Instance,
    Settings,
    Solve,
    Workload,
    build_workload,
    run_solve,
)

PARAMS = PacParams(0.01, 0.01)


def _solution_fields(sol):
    return (sol.q_hat.tobytes(), sol.log_p_hat, sol.certificate, sol.draws_used, sol.oracle_calls)


def _small_circuit_oracle():
    circuit = generate_random_circuit(12, 3, 2, 5)
    evidence = draw_evidence(circuit, (8, 9), "model", DrawStream(11))
    return make_oracle(circuit, QuerySpec(tuple(range(8)), evidence, (10, 11)))


def _table():
    gen = np.random.default_rng(3)
    return TabularDistribution.from_probs(gen.dirichlet(np.full(2**8, 0.15)))


def _solver_runs(oracle):
    """Each solver, with small batches so that batches overshoot and rewind."""
    warm = [np.zeros(oracle.num_query, dtype=np.int8)]
    return [
        lambda o: pac_map(o, PARAMS, cap=3000, rng=DrawStream(1), batch_size=37),
        lambda o: pac_map(o, PARAMS, cap=3000, warm=warm, rng=DrawStream(2), batch_size=500),
        lambda o: smooth_pac_map(o, PARAMS, radius=1, exploit_period=25, cap=3000, rng=DrawStream(3), batch_size=40),
        lambda o: smooth_pac_map(o, PARAMS, radius=2, exploit_period=60, cap=400, warm=warm, rng=DrawStream(4)),
        lambda o: budget_pac_map(o, 777, rng=DrawStream(5))[0],
        lambda o: budget_pac_map(o, 300, warm=warm, rng=DrawStream(6))[0],
    ]


@pytest.mark.parametrize("make", [_small_circuit_oracle, _table], ids=["circuit", "table"])
def test_timed_oracle_is_transparent(make):
    oracle = make()
    for solver in _solver_runs(oracle):
        tracer = Tracer()
        with tracer.solve(0):
            traced = solver(TimedOracle(oracle, tracer))
        assert _solution_fields(solver(oracle)) == _solution_fields(traced)


def test_timed_oracle_separates_draw_scoring_from_exploitation():
    oracle = _small_circuit_oracle()
    tracer = Tracer()
    with tracer.solve(0):
        sol = smooth_pac_map(TimedOracle(oracle, tracer), PARAMS, radius=1, exploit_period=25, cap=200, rng=DrawStream(3))
    totals = layer_totals(tracer.spans)
    assert totals["inference.score"]["rows"] == totals["inference.sample"]["rows"] >= sol.draws_used
    assert totals["inference.score"]["calls"] == totals["inference.sample"]["calls"]
    if "exploit.score" in totals:
        ball = 1 + oracle.num_query
        assert totals["exploit.score"]["rows"] == ball * totals["exploit.score"]["calls"]
        assert sol.oracle_calls == sol.draws_used + totals["exploit.score"]["rows"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_generation_is_deterministic_in_the_seed(name):
    first, again, other = build_workload(name, 3), build_workload(name, 3), build_workload(name, 4)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert len(first.solves) == len(other.solves)


def test_corpus_solves_match_run_benchmark():
    wl = build_workload("corpus", 9)
    cfg = BenchConfig(circuits=CORPUS_CIRCUITS[:1], trials=1, sample_cap=5000, seed=9)
    records = {(r.query_prop, r.method): r for r in run_benchmark(cfg)}
    checked = 0
    for solve in wl.solves:
        inst = wl.instances[solve.instance]
        if not inst.label.startswith(CORPUS_CIRCUITS[0]) or not inst.label.endswith("/t=0"):
            continue
        prop = float(inst.label.split("/q=")[1].split("/")[0])
        rec, ans = records[(prop, solve.method)], run_solve(wl, solve)
        assert (ans.log_p_hat, ans.cert, ans.draws) == (rec.log_p_hat, rec.cert, rec.draws)
        checked += 1
    assert checked == 15


def _small(wl: Workload, count: int) -> Workload:
    return replace(wl, solves=wl.solves[:count])


@pytest.mark.parametrize("name,count", [("corpus", 10), ("tabular", 40)])
def test_two_runs_give_the_same_counts_and_fingerprints(name, count):
    wl = _small(build_workload(name, 5), count)
    outcomes = []
    for _ in range(2):
        tracer = Tracer()
        run = bench.measure(wl, 1e-9, tracer)
        assert not check_pass(wl, run.answers)
        assert run.mismatched == [set()]
        layers = bench.per_layer(wl, run, layer_totals(tracer.spans))
        exact = {"solvers.useful_frac", "solvers.certified_frac"}
        unit = bench.units()
        counts = {k: v for k, v in layers.items() if unit[k] == "count" or k in exact}
        outcomes.append((fingerprint(run.answers), counts))
    assert outcomes[0] == outcomes[1]


def test_layer_self_times_add_up_to_the_solve():
    wl = _small(build_workload("corpus", 2), 10)
    tracer = Tracer()
    bench.measure(wl, 1e-9, tracer)
    totals = layer_totals(tracer.spans)
    assert {"solve", "inference.build", "solvers.pac_map", "solvers.smooth_pac_map", "baselines.amp"} <= set(totals)
    assert math.isclose(sum(t["self_s"] for t in totals.values()), totals["solve"]["total_s"], rel_tol=1e-9)


def _tabular_workload():
    solves = (Solve(0, 0, "pac", 1), Solve(1, 0, "pac", 2))
    return Workload("tiny", Settings(cap=1000, batch_size=64), (Instance("t", table=_table()),), solves)


def test_gate_accepts_true_answers_and_catches_wrong_ones():
    wl = _tabular_workload()
    good = [run_solve(wl, s) for s in wl.solves]
    assert check_pass(wl, good) == []

    flipped = good[0].q_hat.copy()
    flipped[0] ^= 1
    wrong_bits = replace(good[0], q_hat=flipped)
    wrong_draws = replace(good[1], draws=good[1].draws + 1000)
    failures = check_pass(wl, [wrong_bits, wrong_draws])
    assert {i for i, _ in failures} == {0, 1}

    raised = check_pass(wl, ["ZeroEvidenceError: evidence has probability zero", good[1]])
    assert raised == [(0, "solve 0 (t, pac): raised ZeroEvidenceError: evidence has probability zero")]


def test_gate_records_a_brute_force_mode_that_raises(monkeypatch):
    import checks

    def broken(inst):
        raise ValueError("table mass deviates from 1")

    wl = _tabular_workload()
    good = [run_solve(wl, s) for s in wl.solves]
    monkeypatch.setattr(checks, "brute_force_mode", broken)
    failures = check_pass(wl, good)
    assert [i for i, _ in failures] == [0, 1]
    assert all(msg.endswith("brute-force mode raised ValueError: table mass deviates from 1") for _, msg in failures)


def test_gate_checks_certificates_against_the_brute_force_mode():
    wl = _tabular_workload()
    ans = run_solve(wl, wl.solves[0])
    mode = float(np.max(wl.instances[0].table.log_probs))
    runner_up = np.argsort(wl.instances[0].table.log_probs)[-2]
    bits = ((runner_up >> np.arange(7, -1, -1)) & 1).astype(np.int8)
    lp = float(wl.instances[0].table.log_probs[runner_up])
    fake_exact = Answer(bits, lp, "exact", ans.draws)
    failures = check_pass(wl, [fake_exact, ans])
    assert lp < mode and [i for i, _ in failures] == [0]


def test_reference_evaluator_agrees_with_the_circuit_evaluator():
    circuit = generate_random_circuit(12, 3, 2, 5)
    gen = np.random.default_rng(0)
    for _ in range(20):
        kept = gen.random(12) < 0.6
        evidence = {v: int(gen.integers(2)) for v in range(12) if kept[v]}
        free = [v for v in range(12) if not kept[v]]
        ref = reference_log_value(circuit, evidence)
        assert ref == pytest.approx(evaluate_marginal(circuit, evidence, free), rel=1e-12, abs=1e-12)


def test_gate_rescores_circuit_answers_without_the_oracle():
    wl = _small(build_workload("corpus", 5), 10)
    answers = [run_solve(wl, s) for s in wl.solves]
    assert check_pass(wl, answers) == []
    inst = wl.instances[wl.solves[0].instance]
    q = answers[0].q_hat
    assert rescore(inst, q) == pytest.approx(answers[0].log_p_hat, rel=1e-12)
    # An answer whose log_p_hat does not belong to its q_hat fails, whatever produced both.
    failures = check_pass(wl, [replace(answers[0], log_p_hat=answers[0].log_p_hat - 1e-6)] + answers[1:])
    assert {i for i, _ in failures} == {0}


def test_fingerprint_covers_answer_certificate_and_draws():
    a = Answer(np.array([0, 1, 1], dtype=np.int8), -1.5, "pac", 40)
    base = fingerprint([a])
    assert fingerprint([replace(a, draws=41)]) != base
    assert fingerprint([replace(a, cert="budget")]) != base
    assert fingerprint([replace(a, q_hat=np.array([1, 1, 1], dtype=np.int8))]) != base
    assert fingerprint([replace(a, log_p_hat=-1.25)]) == base


def test_percentiles_and_spread_on_fixed_inputs():
    values = list(range(1, 101))
    assert bench.percentile(values, 50) == 50
    assert bench.percentile(values, 90) == 90
    assert bench.percentile(values, 99) == 99
    assert bench.supported_tail(values) == {"p90": 90}
    assert bench.supported_tail(list(range(1, 1001))) == {"p90": 900, "p99": 990}
    assert bench.supported_tail(list(range(1, 20))) == {}
    assert bench.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert bench.ratio(3.0, 0.0) == 0.0


def test_end_to_end_and_layer_metrics_on_fixed_inputs():
    wl = Workload("fixed", Settings(cap=100), (), (Solve(0, 0, "pac", 0), Solve(0, 0, "mp", 0)))
    run = bench.Run(
        answers=[Answer(np.zeros(2, np.int8), -2.0, "pac", 100), Answer(np.zeros(2, np.int8), -4.0, "", 0)],
        latencies=[[0.1, 0.3], [0.2, 0.2]],
        mismatched=[set(), set()],
        traced=[[0.11, 0.33], [0.22, 0.22]],
    )
    e2e = bench.end_to_end(wl, run, run.latencies, setup_s=0.5, peak_rss_mb=10.0)
    assert e2e["solves_per_s"] == pytest.approx(4 / 0.8)
    assert e2e["query_ms_p50"] == pytest.approx(400.0)  # both solves belong to query 0
    assert e2e["draws_per_s"] == pytest.approx(200 / 0.3)
    assert e2e["neg_log_p_hat_mean"] == pytest.approx(3.0)
    # Rescaled latencies: the median query takes the run's overall rescaling.
    faster = bench.end_to_end(wl, run, [[0.05, 0.15], [0.2, 0.2]], setup_s=0.5, peak_rss_mb=10.0)
    assert faster["solves_per_s"] == pytest.approx(4 / 0.6)
    assert faster["query_ms_p50"] == pytest.approx(400.0 * 0.6 / 0.8)
    assert faster["draws_per_s"] == pytest.approx(200 / 0.25)

    totals = {
        "solve": {"calls": 4, "rows": 0, "total_s": 0.88, "self_s": 0.08},
        "solvers.pac_map": {"calls": 2, "rows": 0, "total_s": 0.4, "self_s": 0.1},
        "inference.sample": {"calls": 4, "rows": 400, "total_s": 0.1, "self_s": 0.1},
        "inference.score": {"calls": 4, "rows": 400, "total_s": 0.2, "self_s": 0.2},
        "baselines.mp": {"calls": 2, "rows": 0, "total_s": 0.4, "self_s": 0.4},
    }
    layers = bench.per_layer(wl, run, totals)
    assert layers["inference.score_rows"] == 200
    assert layers["inference.score_us_per_row"] == pytest.approx(1e6 * 0.1 / 200)
    assert layers["solvers.engine_s"] == pytest.approx(0.05)
    assert layers["solvers.engine_us_per_draw"] == pytest.approx(1e6 * 0.05 / 100)
    assert layers["solvers.useful_frac"] == pytest.approx(0.5)
    assert layers["solvers.certified_frac"] == 1.0
    assert layers["baselines.mp_ms"] == pytest.approx(200.0)
    assert layers["solvers.exploit_rows"] == 0
    assert layers["trace.unattributed_s"] == pytest.approx(0.04)
    assert layers["trace.overhead_frac"] == pytest.approx(0.1)


def test_host_reference_runs_in_a_helper_that_is_stopped():
    with HostSpeed() as host:
        host.measure()
        host.measure_when_due()  # not due yet: no second run
        assert len(host.times) == 1 and 0.0 < host.times[0] < 10.0
        proc = host._proc
    assert proc.poll() is not None


def test_host_rescaling_divides_by_the_local_slowdown():
    with HostSpeed() as host:
        pass
    # Reference runs at times 0..19: the host is twice as slow from t=10 on.
    host.mids = [float(t) for t in range(20)]
    host.times = [REFERENCE_S * (1.0 if t < 10 else 2.0) for t in range(20)]
    assert host.slowdown(2.0) == pytest.approx(1.0)
    assert host.slowdown(17.0) == pytest.approx(2.0)
    assert host.slowdown(-5.0) == host.slowdown(0.0) and host.slowdown(99.0) == host.slowdown(19.0)
    assert host.rescale(3.0, 0.4) == pytest.approx(0.4)
    assert host.rescale(15.0, 0.4) == pytest.approx(0.2)
    # One outlying reference run among the nearest does not move the median.
    host.times[4] = 50 * REFERENCE_S
    assert NEAREST >= 3 and host.slowdown(4.0) == pytest.approx(1.0)
    run = bench.Run(latencies=[[0.4, 0.4]], starts=[[3.0, 15.0]])
    assert bench.rescaled(run, host) == [[pytest.approx(0.4), pytest.approx(0.2)]]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    wl = Workload("fixed", Settings(), (), (Solve(0, 0, "pac", 0),))
    run = bench.Run([Answer(np.zeros(1, np.int8), -1.0, "pac", 1)], [[0.1]], [set()], [[0.1]])
    reported = {
        "end_to_end": bench.end_to_end(wl, run, run.latencies, 0.1, 1.0),
        "per_layer": bench.per_layer(wl, run, {"solve": {"calls": 1, "rows": 0, "total_s": 0.1, "self_s": 0.1}}),
    }
    for group, metrics in reported.items():
        assert [m["name"] for m in spec[group]] == list(metrics)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tabular", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
