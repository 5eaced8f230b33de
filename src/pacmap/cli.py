"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 zero-probability
evidence, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import METHODS, BenchConfig, MethodInputs, parse_bench_config, render_summary, run_benchmark, write_records_csv
from .circuit import CircuitFormatError, CircuitStructureError, StructureReport, load_circuit
from .inference import (
    ConditionalOracle,
    ZeroEvidenceError,
    brute_force_map,
    min_entropy,
    parse_query_spec,
    tabulate_conditional,
)
from .solvers import DEFAULT_PARETO_GRID, Budget, PacParams, budget_pac_map

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ZERO_EVIDENCE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bitstring(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def _load_oracle(args) -> ConditionalOracle:
    circuit = load_circuit(args.circuit)
    return ConditionalOracle(circuit, parse_query_spec(Path(args.query).read_text(encoding="utf-8"), circuit.num_vars))


def _cert_fields(cert) -> tuple[str, str, str]:
    if cert is None:
        return "", "", ""
    if isinstance(cert, Budget):
        return cert.kind, "", ""
    return cert.kind, repr(cert.epsilon), repr(cert.delta)


def _check_out(flag: str, path: str) -> None:
    """Refuse an output path before any run: an empty one, a directory, a
    file that is not writable, or a new file in a missing or unwritable
    directory."""
    if not path:
        raise ValueError(f"{flag} expects a file path, not an empty one")
    out = Path(path)
    if out.exists():
        ok = not out.is_dir() and os.access(out, os.W_OK)
    else:
        ok = out.parent.is_dir() and os.access(out.parent, os.W_OK)
    if not ok:
        raise ValueError(f"{flag} {path}: not a writable file in a writable directory")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_trajectory(points, path) -> None:
    rows = ([p.m, repr(p.p_hat), repr(p.p_check), repr(p.miss_bound), p.stop_time_m] for p in points)
    _write_csv(path, ["m", "p_hat", "p_check", "miss_bound", "stop_time"], rows)


# The MethodInputs field that each method flag of `solve` fills.
_FLAG_FIELDS = {
    "epsilon": "params", "delta": "params", "budget": "budget", "cap": "cap", "period": "exploit_period",
    "radius": "radius", "warm_from": "warm", "trajectory": "trajectory",
}


def cmd_solve(args, parser: argparse.ArgumentParser) -> int:
    method, entry = args.method, METHODS[args.method]
    for dest, field in _FLAG_FIELDS.items():
        if field not in entry.reads and getattr(args, dest) != parser.get_default(dest):
            raise ValueError(f"--{dest.replace('_', '-')} is not supported with method {method!r}")
    if "budget" in entry.reads and args.budget is None:
        raise ValueError(f"--budget is required for method {method!r}")
    sources = [name for name, m in METHODS.items() if not m.reads]
    if args.warm_from is not None and args.warm_from not in sources:
        raise ValueError(f"--warm-from expects one of {', '.join(sources)}")
    if args.trajectory is not None:
        _check_out("--trajectory", args.trajectory)
    params = PacParams(args.epsilon, args.delta) if "params" in entry.reads else None
    inputs = MethodInputs(
        _load_oracle(args), params, cap=args.cap, budget=args.budget, exploit_period=args.period,
        radius=args.radius, rng=args.seed, trajectory=[] if args.trajectory else None,
    )
    if args.warm_from:
        inputs = replace(inputs, warm=[METHODS[args.warm_from].run(inputs).q_hat])

    sol = entry.run(inputs)
    kind, eps_s, delta_s = _cert_fields(sol.certificate)
    print(
        f"result method={method} q={_bitstring(sol.q_hat)} log_p_hat={sol.log_p_hat!r} "
        f"cert={kind} epsilon={eps_s} delta={delta_s} draws={sol.draws_used} "
        f"oracle_calls={sol.oracle_calls} wall_ms={sol.wall_time * 1000.0:.3g}"
    )
    which = f"{'an' if kind == 'exact' else 'a'} {kind}" if kind else "no"
    print(
        f"{method} finished after {sol.draws_used} draws with {which} certificate; "
        f"ln p(q|e) = {sol.log_p_hat:.6f}"
    )
    if args.trajectory:
        _write_trajectory(inputs.trajectory, args.trajectory)
        print(f"trajectory written to {args.trajectory} ({len(inputs.trajectory)} points)")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        load_circuit(args.circuit)
        report = StructureReport(True, True, ())
    except CircuitStructureError as exc:  # a structural refusal carries its report
        if exc.report is None:
            raise
        report = exc.report
    print(f"smooth: {'yes' if report.is_smooth else 'no'}")
    print(f"decomposable: {'yes' if report.is_decomposable else 'no'}")
    for nid, prop, desc in report.violations:
        print(f"violation: node {nid}: {prop}: {desc}")
    if not report.violations:
        print("no violations")
    return EXIT_OK


def cmd_pareto(args) -> int:
    _check_out("--out", args.out)
    sol, front = budget_pac_map(_load_oracle(args), args.budget, rng=args.seed, grid=args.grid)
    _write_csv(args.out, ["epsilon", "delta"], ([repr(eps), repr(delta)] for eps, delta in front.points))
    kind = sol.certificate.kind
    print(
        f"budget={args.budget} p_hat={front.p_hat!r} cert={kind} "
        f"points={len(front.points)} out={args.out}"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    table = tabulate_conditional(_load_oracle(args))
    q_star, log_p_star = brute_force_map(table)
    p_star = float(np.exp(log_p_star))
    print(
        f"q_star={_bitstring(q_star)} p_star={p_star!r} log_p_star={log_p_star!r} "
        f"min_entropy_bits={min_entropy(p_star)!r}"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.out != "-":
        _check_out("--out", args.out)
    cfg = parse_bench_config(Path(args.config).read_text(encoding="utf-8"))
    records = run_benchmark(cfg)
    if args.out == "-":
        write_records_csv(records, sys.stdout)
        print(render_summary(records), file=sys.stderr)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_records_csv(records, fh)
        print(render_summary(records))
        print(f"records written to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pacmap", description="PAC MAP inference over probabilistic circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    # Option groups that several subcommands share.
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--circuit", required=True)
    problem.add_argument("--query", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", parents=[problem, seed], help="run one solver on a circuit and query spec")
    solve.add_argument("--method", required=True, choices=list(METHODS))
    # The defaults a bench run gives its methods, read from BenchConfig.
    solve.add_argument("--epsilon", type=float, default=BenchConfig.epsilon)
    solve.add_argument("--delta", type=float, default=BenchConfig.delta)
    solve.add_argument("--budget", type=int, default=None)
    solve.add_argument("--cap", type=int, default=BenchConfig.sample_cap)
    solve.add_argument("--period", type=int, default=BenchConfig.exploit_period)
    solve.add_argument("--radius", type=int, default=BenchConfig.radius)
    solve.add_argument("--warm-from", default=None)
    solve.add_argument("--trajectory", default=None)
    solve.set_defaults(func=lambda args: cmd_solve(args, solve))

    bench = sub.add_parser("bench", help="run the benchmark harness from a config file")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", default="-", help="records CSV path, or - for stdout")
    bench.set_defaults(func=cmd_bench)

    pareto = sub.add_parser("pareto", parents=[problem, seed], help="fixed-budget run and its (epsilon, delta) frontier")
    pareto.add_argument("--budget", type=int, required=True)
    pareto.add_argument("--grid", type=int, default=DEFAULT_PARETO_GRID)
    pareto.add_argument("--out", required=True)
    pareto.set_defaults(func=cmd_pareto)

    validate = sub.add_parser("validate", help="report smoothness, decomposability and root-scope coverage")
    validate.add_argument("--circuit", required=True)
    validate.set_defaults(func=cmd_validate)

    oracle = sub.add_parser("oracle", parents=[problem], help="exact MAP by enumeration (|Q| <= 24)")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroEvidenceError as exc:
        print(f"pacmap: zero-probability evidence: {exc}", file=sys.stderr)
        return EXIT_ZERO_EVIDENCE
    except (CircuitFormatError, CircuitStructureError, ValueError, OSError) as exc:
        print(f"pacmap: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal invariant violation
        print(f"pacmap: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
