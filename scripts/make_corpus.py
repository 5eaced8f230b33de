#!/usr/bin/env python3
"""Materialize the desk-scale benchmark corpus.

Writes the three generated circuits of pacmap.bench.CORPUS (n = 16, 32, 64)
as .spn files plus a bench config that sets only the circuits, the draw cap
and the seed; every other key takes its BenchConfig default.  So `pacmap
bench --config <outdir>/bench.conf` reproduces the acceptance suite's
instances from files instead of regenerating them.
"""

import argparse
from pathlib import Path

from pacmap.bench import CORPUS, DEFAULT_CAP, resolve_circuit
from pacmap.circuit import save_circuit

CONFIG_TEMPLATE = """\
# desk-scale ranking benchmark; unset keys take their BenchConfig defaults
circuits = {circuits}
sample_cap = {cap}
seed = {seed}
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
