#!/usr/bin/env python3
"""Bound-trajectory illustration on a 64-atom distribution with mode 0.104.

Builds an explicit pmf (mode pinned at 0.104, exponential tail), compiles it
into a mixture-of-indicators circuit, runs the adaptive solver with a
trajectory sink, and writes the per-draw CSV (columns m, p_hat, p_check,
miss_bound, stop_time).  The final stop_time column settles at
ceil(0.99 * ln(100) / 0.104) = 44 once the mode becomes the leading
candidate; the deterministic and probabilistic bounds in the CSV trace the
two panels of the usual convergence picture.
"""

import argparse
import math

import numpy as np

from pacmap.circuit import circuit_from_pmf
from pacmap.cli import _write_trajectory
from pacmap.inference import QuerySpec, make_oracle
from pacmap.rng import DrawStream
from pacmap.solvers import PacParams, pac_map


def build_table(mode_prob: float, n_vars: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    tail = gen.exponential(size=2**n_vars - 1)
    tail = tail / tail.sum() * (1.0 - mode_prob)
    if tail.max() >= mode_prob:
        raise SystemExit("tail draw exceeded the requested mode; pick another --table-seed")
    return np.concatenate(([mode_prob], tail))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--mode-prob", type=float, default=0.104)
    parser.add_argument("--vars", type=int, default=6)
    parser.add_argument("--table-seed", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="illustration.csv")
    args = parser.parse_args()

    probs = build_table(args.mode_prob, args.vars, args.table_seed)
    circuit = circuit_from_pmf(probs)
    oracle = make_oracle(circuit, QuerySpec(tuple(range(args.vars))))

    trajectory = []
    sol = pac_map(
        oracle,
        PacParams(args.epsilon, args.delta),
        rng=DrawStream(args.seed),
        trajectory=trajectory,
    )

    _write_trajectory(trajectory, args.out)
    print(f"wrote {args.out} ({len(trajectory)} draws)")
    print(
        f"stopped at m={sol.draws_used} with a {sol.certificate.kind} certificate, "
        f"p_hat={math.exp(sol.log_p_hat):.4f}, final stop_time={trajectory[-1].stop_time_m}"
    )


if __name__ == "__main__":
    main()
