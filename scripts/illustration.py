#!/usr/bin/env python3
"""Bound-trajectory illustration on a 64-atom distribution with mode 0.104.

Builds an explicit pmf (mode pinned at 0.104, exponential tail), compiles it
into a mixture-of-indicators circuit, writes that circuit and its query (all
variables) as .spn and .query files beside the CSV, and runs `pacmap solve
--method pac --trajectory` on them, which writes the per-draw CSV (columns
m, p_hat, p_check, miss_bound, stop_time).  The final stop_time column
settles at ceil(0.99 * ln(100) / 0.104) = 44 once the mode becomes the
leading candidate; the deterministic and probabilistic bounds in the CSV
trace the two panels of the usual convergence picture.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from pacmap import cli
from pacmap.circuit import circuit_from_pmf, save_circuit


def build_table(mode_prob: float, n_vars: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    tail = gen.exponential(size=2**n_vars - 1)
    tail = tail / tail.sum() * (1.0 - mode_prob)
    if tail.max() >= mode_prob:
        raise SystemExit("tail draw exceeded the requested mode; pick another --table-seed")
    return np.concatenate(([mode_prob], tail))


def write_problem(out, mode_prob: float = 0.104, n_vars: int = 6, table_seed: int = 6) -> tuple[str, str]:
    """Write the pmf's circuit and query beside `out`, with the suffixes .spn
    and .query; returns their paths."""
    cpath, qpath = Path(out).with_suffix(".spn"), Path(out).with_suffix(".query")
    save_circuit(circuit_from_pmf(build_table(mode_prob, n_vars, table_seed)), cpath)
    qpath.write_text("".join(f"Q {v}\n" for v in range(n_vars)), encoding="utf-8")
    return str(cpath), str(qpath)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--mode-prob", type=float, default=0.104)
    parser.add_argument("--vars", type=int, default=6)
    parser.add_argument("--table-seed", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="illustration.csv")
    args = parser.parse_args()
    if Path(args.out).suffix in (".spn", ".query"):  # write_problem would write the circuit or query over it
        parser.error(f"--out {args.out}: ends in .spn or .query, the suffixes of the circuit and query files")

    cpath, qpath = write_problem(args.out, args.mode_prob, args.vars, args.table_seed)
    return cli.main([
        "solve", "--method", "pac", "--circuit", cpath, "--query", qpath, "--epsilon", repr(args.epsilon),
        "--delta", repr(args.delta), "--seed", str(args.seed), "--trajectory", args.out,
    ])


if __name__ == "__main__":
    sys.exit(main())
