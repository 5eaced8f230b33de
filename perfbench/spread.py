"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload corpus --seeds 1-10 [--sets 2]

The spread is (Q3 - Q1) / median over the per-seed values, with quartiles as
``statistics.quantiles(values, n=4)`` gives them; a metric is steady when its
spread stays below a third of its bound in BENCHMARK.json.  With ``--sets N``
each seed is run N times back to back, one set after the other, so that a
drift in host speed falls on every set alike; each set is summarised on its
own, and the change of each median from the first set is reported.  Runs are
made one after another, never in parallel, so they do not contend for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, quartile_spread

ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        print(f"seed {seed}: run failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    fp = next((ln.split()[-1] for ln in lines if ln.startswith("fingerprint ")), "")
    return {"seed": seed, "fingerprint": fp, "attempted": result["attempted"], "metrics": result["metrics"]}


def _summary(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) >= 2 and med else None
        summary[name] = {"median": med, "spread": spread, "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--sets", type=int, default=1, help="runs per seed, back to back")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    sets: list[list[dict]] = [[] for _ in range(args.sets)]
    for seed in _seeds(args.seeds):
        for k, runs in enumerate(sets):
            run = _run(args.workload, seed, seconds)
            if run is None:
                return 1
            runs.append(run)
            print(f"set {k + 1} seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in run["metrics"].items()),
                  flush=True)

    summaries = [_summary(runs, bounds) for runs in sets]
    for k, summary in enumerate(summaries):
        print(f"set {k + 1}")
        for name, s in summary.items():
            bound, spread = s["bound"], s["spread"]
            flag = "" if bound is None or spread is None else ("ok" if spread < bound / 3 else "WIDE")
            shift = s["median"] / summaries[0][name]["median"] - 1.0
            print(f"  {name:24s} median {s['median']:<14.6g} spread {spread if spread is None else round(spread, 4)!s:<8} bound {bound} {flag:4s}"
                  f" median vs set 1 {shift:+.3f}")
    same = all(len({runs[i]["fingerprint"] for runs in sets}) == 1 for i in range(len(sets[0])))
    print(f"fingerprints identical across sets: {same}")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"spread-{args.workload}.json"
    doc = {"workload": args.workload, "seconds": seconds,
           "sets": [{"runs": runs, "summary": summary} for runs, summary in zip(sets, summaries)]}
    out.write_text(json.dumps(doc, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
