"""pacmap solve benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, then replays whole passes over its
fixed list of solves for about ``--seconds``: one process, one solve at a time
(a closed loop with one client).  The set-up is timed ``SETUP_REPS`` times,
spread evenly over the run so that it meets the same host load as the solves.
A fixed reference workload (``host.py``) is timed between solves, and every
end-to-end timing is rescaled by the host's local slowdown, so that it reads
as time at the reference host speed; the raw wall-clock figures are printed
and written to ``perfbench/out/`` beside them.  Every answer is re-scored and
checked, every replayed pass must repeat the first one exactly, and the last
line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates each
solve with and without spans and reports the per-layer metrics, writing the
spans to ``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 11


# -- metric derivations -------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(values, qs=(90.0, 99.0)) -> dict[str, float]:
    """The tail percentiles beyond which at least ten samples lie."""
    n = len(values)
    return {f"p{q:g}": percentile(values, q) for q in qs if n - max(1, math.ceil(q / 100.0 * n)) >= 10}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- measurement --------------------------------------------------------------


@dataclass
class Run:
    """Answers of the first pass plus every timing of every pass."""

    answers: list = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # [pass][solve], seconds
    mismatched: list[set[int]] = field(default_factory=list)  # [pass] solve indices differing from pass 0
    traced: list[list[float]] = field(default_factory=list)  # trace mode: [pass][solve] traced latency
    starts: list[list[float]] = field(default_factory=list)  # [pass][solve], perf_counter at start


def _timed(fn):
    """(answer, start, seconds); a solve that raises yields 'Type: message' as its answer."""
    t0 = perf_counter()
    try:
        ans = fn()
    except Exception as exc:  # a failed solve is recorded and counted, never fatal
        ans = f"{type(exc).__name__}: {exc}"
    return ans, t0, perf_counter() - t0


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.key() == b.key()


def _traced_solve(wl, solve, tracer, solve_id: int, latencies: list[float]):
    from workloads import run_solve

    with tracer.solve(solve_id):
        ans, _, dt = _timed(lambda: run_solve(wl, solve, tracer))
    latencies.append(dt)
    return ans


def measure(wl, seconds: float, tracer=None, between=lambda: None) -> Run:
    """Replay whole passes until another pass would overrun `seconds` (at least one).

    With a tracer, each solve runs twice, plain and traced, in an order that
    alternates from solve to solve, and both answers must match.  `between`
    is called after every solve, outside its timing.
    """
    from workloads import run_solve

    run = Run()
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        p = len(run.latencies)
        plain, starts, traced, answers, bad = [], [], [], [], set()
        for i, solve in enumerate(wl.solves):
            traced_first = tracer is not None and (i + p) % 2 == 1
            if traced_first:
                traced_ans = _traced_solve(wl, solve, tracer, len(wl.solves) * p + i, traced)
            ans, t0, dt = _timed(lambda: run_solve(wl, solve))
            if tracer is not None and not traced_first:
                traced_ans = _traced_solve(wl, solve, tracer, len(wl.solves) * p + i, traced)
            if tracer is not None and not _same(ans, traced_ans):
                bad.add(i)
            plain.append(dt)
            starts.append(t0)
            answers.append(ans)
            between()
        if p == 0:
            run.answers = answers
        else:
            bad |= {i for i, a in enumerate(answers) if not _same(a, run.answers[i])}
        run.latencies.append(plain)
        run.starts.append(starts)
        run.traced.append(traced)
        run.mismatched.append(bad)
        pass_s = perf_counter() - t_pass
        if perf_counter() - start + pass_s > seconds:
            return run


def _draws(ans) -> int:
    return 0 if isinstance(ans, str) else ans.draws


def rescaled(run: Run, host) -> list[list[float]]:
    """Every solve's latency at the reference host speed, [pass][solve]."""
    return [[host.rescale(t0, dt) for t0, dt in zip(st, lat)] for st, lat in zip(run.starts, run.latencies)]


def query_latencies(wl, latencies: list[list[float]]) -> list[float]:
    """Seconds per query, every pass: the summed latency of the query's solves."""
    out = []
    for lat in latencies:
        per_query: dict[int, float] = {}
        for solve, t in zip(wl.solves, lat):
            per_query[solve.query] = per_query.get(solve.query, 0.0) + t
        out.extend(per_query.values())
    return out


def end_to_end(wl, run: Run, latencies: list[list[float]], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one run, from per-solve `latencies` [pass][solve] in seconds."""
    from workloads import SAMPLING_METHODS

    flat = [t for lat in latencies for t in lat]
    sampling = [i for i, s in enumerate(wl.solves) if s.method in SAMPLING_METHODS]
    # The median query takes the run's overall rescaling, not its own: a short
    # query's local slowdown rests on a few reference runs and adds their noise.
    scale = sum(flat) / sum(t for lat in run.latencies for t in lat)
    draws = len(latencies) * sum(_draws(run.answers[i]) for i in sampling)
    sampling_s = sum(lat[i] for lat in latencies for i in sampling)
    log_ps = [a.log_p_hat for a in run.answers if not isinstance(a, str)] or [math.nan]
    return {
        "setup_s": setup_s,
        "solves_per_s": len(flat) / sum(flat),
        "query_ms_p50": statistics.median(query_latencies(wl, run.latencies)) * scale * 1000.0,
        "draws_per_s": ratio(draws, sampling_s),
        "neg_log_p_hat_mean": -statistics.fmean(log_ps),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, run: Run, totals: dict) -> dict[str, float]:
    from workloads import ADAPTIVE_METHODS, SAMPLING_METHODS

    passes = len(run.latencies)

    def layer(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / passes

    def ms_per_call(name: str) -> float:
        agg = totals.get(name)
        return 1000.0 * agg["total_s"] / agg["calls"] if agg else 0.0

    draws = sum(_draws(a) for s, a in zip(wl.solves, run.answers) if s.method in SAMPLING_METHODS)
    adaptive = [a for s, a in zip(wl.solves, run.answers) if s.method in ADAPTIVE_METHODS and not isinstance(a, str)]
    engine_s = sum(layer(name, "self_s") for name in totals if name.startswith("solvers."))
    plain = sum(t for lat in run.latencies for t in lat)
    traced = sum(t for tr in run.traced for t in tr)
    return {
        "inference.score_s": layer("inference.score", "self_s"),
        "inference.score_rows": layer("inference.score", "rows"),
        "inference.score_calls": layer("inference.score", "calls"),
        "inference.score_us_per_row": 1e6 * ratio(layer("inference.score", "self_s"), layer("inference.score", "rows")),
        "inference.sample_s": layer("inference.sample", "self_s"),
        "inference.sample_rows": layer("inference.sample", "rows"),
        "inference.sample_calls": layer("inference.sample", "calls"),
        "inference.sample_us_per_row": 1e6 * ratio(layer("inference.sample", "self_s"), layer("inference.sample", "rows")),
        "solvers.exploit_score_s": layer("exploit.score", "self_s"),
        "solvers.exploit_rows": layer("exploit.score", "rows"),
        "solvers.exploit_passes": layer("exploit.score", "calls"),
        "solvers.engine_s": engine_s,
        "solvers.engine_us_per_draw": 1e6 * ratio(engine_s, draws),
        "solvers.draws_committed": float(draws),
        "solvers.useful_frac": ratio(draws, layer("inference.sample", "rows")),
        "solvers.certified_frac": ratio(sum(a.cert != "budget" for a in adaptive), len(adaptive)),
        "inference.build_ms": ms_per_call("inference.build"),
        "baselines.mp_ms": ms_per_call("baselines.mp"),
        "baselines.amp_ms": ms_per_call("baselines.amp"),
        "baselines.ind_ms": ms_per_call("baselines.ind"),
        "trace.solve_s": layer("solve", "total_s"),
        "trace.unattributed_s": layer("solve", "self_s"),
        "trace.overhead_frac": ratio(traced, plain) - 1.0,
    }


def units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- entry point --------------------------------------------------------------


def _import_program():
    """Import pacmap from this checkout's src/, never from anywhere else."""
    if not (SRC / "pacmap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pacmap sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pacmap

    if not Path(pacmap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported pacmap from {pacmap.__file__}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    unit = units()
    from host import HostSpeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    with HostSpeed() as host:
        return _run(args, host, unit)


def _run(args, host, unit: dict[str, str]) -> int:
    """Set up, measure, check and report one run; `host` times the reference workload."""
    from checks import check_pass, fingerprint
    from host import REFERENCE_S
    from tracing import Tracer, layer_totals
    from workloads import build_workload, warm_up

    setup_times, digests = [], set()  # setup_times: (start, seconds)

    def set_up():
        host.measure()
        t0 = perf_counter()
        wl = build_workload(args.workload, args.seed)
        warm_up(wl)
        setup_times.append((t0, perf_counter() - t0))
        digests.add(wl.digest())
        host.measure()
        return wl

    wl = set_up()
    start = perf_counter()

    def between_solves():
        if len(setup_times) < SETUP_REPS and perf_counter() - start >= len(setup_times) * args.seconds / SETUP_REPS:
            set_up()
        host.measure_when_due()

    tracer = Tracer() if args.trace else None
    run = measure(wl, args.seconds, tracer, between_solves)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < SETUP_REPS:
        set_up()
    problems = [] if len(digests) == 1 else ["workload generation is not deterministic in the seed"]

    gate = check_pass(wl, run.answers)
    gate_failed = {i for i, _ in gate}
    problems[:0] = [msg for _, msg in gate]
    for p, bad in enumerate(run.mismatched):
        problems.extend(f"pass {p} solve {i}: answer differs from pass 0 or from its traced run" for i in sorted(bad))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(run.latencies),
        "solves_per_pass": len(wl.solves),
        "fingerprint": fingerprint(run.answers),
        "setup_times_s": [dt for _, dt in setup_times],
        "host_reference_ms": [1000.0 * t for t in host.times],
        "solves": [
            {
                "instance": wl.instances[solve.instance].label,
                "method": solve.method,
                "cert": ans if isinstance(ans, str) else ans.cert,
                "draws": _draws(ans),
                "wall_ms": [1000.0 * lat[i] for lat in run.latencies],
            }
            for i, (solve, ans) in enumerate(zip(wl.solves, run.answers))
        ],
    }
    if tracer is None:
        latencies = rescaled(run, host)
        metrics = end_to_end(wl, run, latencies, statistics.median(host.rescale(*s) for s in setup_times), peak_rss_mb)
        record["wall_metrics"] = end_to_end(
            wl, run, run.latencies, statistics.median(dt for _, dt in setup_times), peak_rss_mb
        )
        scale = metrics["query_ms_p50"] / record["wall_metrics"]["query_ms_p50"]
        queries = [t * scale * 1000.0 for t in query_latencies(wl, run.latencies)]
        record["query_tail_ms"] = supported_tail(queries)
        record["query_samples"] = len(queries)
    else:
        totals = layer_totals(tracer.spans)
        metrics = per_layer(wl, run, totals)
        layer_sum = sum(agg["self_s"] for agg in totals.values())
        solve_s = totals["solve"]["total_s"]
        if abs(layer_sum - solve_s) > 1e-9 * max(1.0, solve_s):
            problems.append(f"layer self times sum to {layer_sum!r} s, traced solve time is {solve_s!r} s")
        record["layers"] = totals
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(HERE.parent))
    record["metrics"] = metrics
    record["problems"] = problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {record['passes']} pass(es) x {len(wl.solves)} solves")
    print(f"fingerprint {args.workload} seed={args.seed} {record['fingerprint']}")
    print(f"host slowdown against the reference speed: median {statistics.median(host.times) / REFERENCE_S:.3f}"
          f" over {len(host.times)} reference runs")
    if tracer is None:
        print(f"query latency tail over {record['query_samples']} queries: {record['query_tail_ms'] or 'none supported'}")
        print("wall-clock metrics, not rescaled: " + " ".join(f"{k}={v:.6g}" for k, v in record["wall_metrics"].items()))
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    if len(problems) > 20:
        print(f"FAIL ... {len(problems) - 20} more")
    runs_per_solve = 2 if tracer is not None else 1
    attempted = runs_per_solve * len(wl.solves) * len(run.latencies)
    failed = runs_per_solve * sum(len(gate_failed | bad) for bad in run.mismatched)
    if problems and not failed:
        failed = 1  # a check not tied to one solve failed
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
