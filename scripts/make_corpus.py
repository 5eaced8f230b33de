#!/usr/bin/env python3
"""Materialize the desk-scale benchmark corpus.

Writes the three generated circuits (n = 16, 32, 64) as .spn files plus a
ready-to-run bench config.  The gen: specs below match the ones used by the
acceptance suite, so `pacmap bench --config <outdir>/bench.conf` reproduces
the same instances from files instead of regenerating them.
"""

import argparse
from pathlib import Path

from pacmap.bench import DEFAULT_CAP, resolve_circuit
from pacmap.circuit import save_circuit

CORPUS = (
    "gen:n=16/depth=3/fanout=2/seed=101",
    "gen:n=32/depth=3/fanout=2/seed=202",
    "gen:n=64/depth=3/fanout=2/seed=303",
)

CONFIG_TEMPLATE = """\
# desk-scale ranking benchmark
circuits = {circuits}
query_proportions = 0.10, 0.25, 0.50
trials = 10
methods = pac, smooth, mp, amp, ind
epsilon = 0.01
delta = 0.01
sample_cap = {cap}
batch_size = 5000
exploit_period = 100
radius = 1
seed = {seed}
evidence_mode = model
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="corpus")
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in CORPUS:
        dataset, circuit = resolve_circuit(spec)
        name = dataset.replace("gen:", "").replace("/", "_").replace("=", "") + ".spn"
        path = outdir / name
        save_circuit(circuit, path)
        paths.append(str(path))
        print(f"wrote {path} ({len(circuit.nodes)} nodes, {circuit.num_vars} vars)")

    conf = outdir / "bench.conf"
    conf.write_text(
        CONFIG_TEMPLATE.format(circuits=", ".join(paths), cap=args.cap, seed=args.seed),
        encoding="utf-8",
    )
    print(f"wrote {conf}")
    print(f"run: pacmap bench --config {conf} --out {outdir / 'records.csv'}")


if __name__ == "__main__":
    main()
