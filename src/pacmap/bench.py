"""Benchmark harness: the ranking corpus, its instances, ranking, CSV.

A benchmark run crosses circuits x query proportions x trials.  Each trial
partitions the variables, draws evidence, builds a fresh oracle per method
(timing includes oracle construction, excludes parsing) and ranks the
methods by the re-scored probability of their answers using competition
ranking.  Model evidence is drawn from one all-variable sampler per
circuit, shared by its trials (see sample_joint).  Everything is keyed off
counter-based streams derived from (master seed, circuit, proportion, trial,
method name), so a config runs to identical records regardless of
scheduling or method subsets.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import arg_max_product, independent_map, max_product
from .circuit import Circuit, _text_lines, evaluate_marginal, generate_random_circuit, load_circuit
from .inference import ConditionalOracle, QuerySpec, ZeroEvidenceError, sample_joint
from .rng import DrawStream, _integer, as_stream, derive_seed
from .solvers import (
    Budget,
    PacParams,
    Solution,
    budget_pac_map,
    naive_map,
    pac_map,
    pareto_delta,
    smooth_pac_map,
)

# Draw cap of the adaptive solvers, and the draw count of the fixed-budget
# ones in a bench run, unless set otherwise.
DEFAULT_CAP = 10**6

# The desk-scale ranking corpus: the generated circuits of the paper's
# ranking run, n = 16, 32 and 64.
CORPUS = (
    "gen:n=16/depth=3/fanout=2/seed=101",
    "gen:n=32/depth=3/fanout=2/seed=202",
    "gen:n=64/depth=3/fanout=2/seed=303",
)


@dataclass(frozen=True)
class MethodInputs:
    """Everything a registered method may read; each method uses a subset."""

    oracle: ConditionalOracle
    params: PacParams | None
    cap: int | None
    budget: int | None
    exploit_period: int
    radius: int
    rng: int | DrawStream
    warm: Sequence[np.ndarray] | None = None
    trajectory: list | None = None


@dataclass(frozen=True)
class Method:
    """A registry entry: `run` and the MethodInputs fields it reads besides
    `oracle` and `rng`.  The CLI refuses a flag whose field a method does
    not read."""

    run: Callable[[MethodInputs], Solution]
    reads: frozenset[str] = frozenset()


# What pac reads; smooth adds its exploitation knobs.
_ADAPTIVE = frozenset({"params", "cap", "warm", "trajectory"})
METHODS: dict[str, Method] = {
    "pac": Method(
        lambda a: pac_map(a.oracle, a.params, cap=a.cap, warm=a.warm, rng=a.rng, trajectory=a.trajectory),
        _ADAPTIVE,
    ),
    "smooth": Method(
        lambda a: smooth_pac_map(
            a.oracle, a.params, radius=a.radius, exploit_period=a.exploit_period, cap=a.cap, warm=a.warm,
            rng=a.rng, trajectory=a.trajectory,
        ),
        _ADAPTIVE | {"exploit_period", "radius"},
    ),
    "budget": Method(
        lambda a: budget_pac_map(a.oracle, a.budget, warm=a.warm, rng=a.rng)[0], frozenset({"budget", "warm"})
    ),
    "naive": Method(lambda a: naive_map(a.oracle, a.budget, rng=a.rng), frozenset({"budget"})),
    "mp": Method(lambda a: max_product(a.oracle.circuit, a.oracle.spec, oracle=a.oracle)),
    "amp": Method(lambda a: arg_max_product(a.oracle.circuit, a.oracle.spec, oracle=a.oracle)),
    "ind": Method(lambda a: independent_map(a.oracle)),
}
# The paper's ranking run: every method except the fixed-budget solvers.
DEFAULT_METHODS = tuple(name for name, method in METHODS.items() if "budget" not in method.reads)

@dataclass(frozen=True)
class BenchConfig:
    circuits: tuple[str, ...]
    query_proportions: tuple[float, ...] = (0.10, 0.25, 0.50)
    trials: int = 10
    methods: tuple[str, ...] = DEFAULT_METHODS
    epsilon: float = 0.01
    delta: float = 0.01
    sample_cap: int = DEFAULT_CAP
    exploit_period: int = 100
    radius: int = 1
    seed: int = 0
    evidence_mode: str = "model"

    def __post_init__(self):
        if not self.circuits:
            raise ValueError("config needs at least one circuit")
        if not self.methods or not self.query_proportions:
            raise ValueError("config needs at least one method and one query proportion")
        if any(not (0.0 < p < 1.0) for p in self.query_proportions):
            raise ValueError("query proportions must lie in (0, 1)")
        for key in ("trials", "sample_cap", "exploit_period", "radius"):
            _integer(getattr(self, key), key, 1)
        _integer(self.seed, "seed")
        for key in ("circuits", "methods", "query_proportions"):
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{key} lists {repeated[0]!r} twice")
        PacParams(self.epsilon, self.delta)
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.evidence_mode not in ("model", "uniform"):
            raise ValueError("evidence_mode must be 'model' or 'uniform'")


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row; the fields are the columns, in order.  Every field after
    `method` defaults to what a row whose instance or method raised holds."""

    dataset: str
    trial: int
    query_prop: float
    method: str
    log_p_hat: float | None = None
    rank: int | None = None
    runtime_ms: float = 0.0
    cert: str = ""
    epsilon: float | None = None
    delta: float | None = None
    draws: int = 0
    timed_out: bool = False


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


_LIST_KEYS = {"circuits", "query_proportions", "methods"}
_INT_KEYS = {"trials", "sample_cap", "exploit_period", "radius", "seed"}
_FLOAT_KEYS = {"epsilon", "delta"}


def parse_bench_config(text: str) -> BenchConfig:
    """Parse `key = value` lines; list values are comma separated."""
    values: dict = {}
    known = {f.name for f in fields(BenchConfig)}
    for ln, line in _text_lines(text):
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"config line {ln}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {ln}: duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                items = tuple(tok.strip() for tok in val.split(",") if tok.strip())
                if not items:
                    raise ValueError("needs at least one value")
                if key == "query_proportions":
                    items = tuple(float(tok) for tok in items)
                values[key] = items
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ValueError(f"config line {ln}: {key}: {exc}") from None
    return BenchConfig(**values)


_GEN_KEYS = ("n", "depth", "fanout", "seed")


def resolve_circuit(spec: str) -> tuple[str, Circuit]:
    """A circuit reference is a file path or a `gen:` generator spec.

    Generator specs look like ``gen:n=16/depth=3/fanout=2/seed=7`` (slash
    separated, so specs can sit in comma-separated config lists) and serve
    as their own dataset id.
    """
    if spec.startswith("gen:"):
        params = {}
        for tok in spec[4:].split("/"):
            key, _, val = tok.partition("=")
            key = key.strip()
            if key not in _GEN_KEYS:
                raise ValueError(f"generator spec {spec!r}: unknown key {key!r}")
            if key in params:
                raise ValueError(f"generator spec {spec!r}: duplicate key {key!r}")
            try:
                params[key] = int(val)
            except ValueError:
                raise ValueError(f"generator spec {spec!r}: {key!r} takes an integer, got {val!r}") from None
        missing = set(_GEN_KEYS) - set(params)
        if missing:
            raise ValueError(f"generator spec {spec!r} missing {sorted(missing)}")
        return spec, generate_random_circuit(params["n"], params["depth"], params["fanout"], params["seed"])
    return Path(spec).stem, load_circuit(spec)


def random_query_partition(n: int, proportion: float, rng: int | DrawStream) -> QuerySpec:
    """Uniform query subset of size round(proportion * n); no nuisance vars.

    The returned spec carries only the query set; evidence variables are the
    complement and their values are filled by draw_evidence.
    """
    if not (0.0 < proportion < 1.0):
        raise ValueError("proportion must lie in (0, 1)")
    k = math.floor(proportion * n + 0.5)
    if k == 0 or k == n:
        raise ValueError(f"proportion {proportion} leaves an empty query or evidence set for n={n}")
    stream = as_stream(rng)
    order = np.argsort(stream.uniform_block(1, n).ravel(), kind="stable")
    return QuerySpec(tuple(sorted(int(v) for v in order[:k])))


def draw_evidence(
    circuit: Circuit, e_vars: tuple[int, ...], mode: str, rng: int | DrawStream
) -> dict[int, int]:
    """Evidence values for e_vars.

    `model` projects one unconditional joint sample onto the evidence set,
    which guarantees positive evidence probability; `uniform` draws fair
    bits, retrying up to 100 times before giving up on zero-mass evidence.

    A variable index that is not an integer, lies outside 0..n-1 or is given
    twice is refused before the stream is read.
    """
    e_vars = tuple(_integer(v, "evidence variable") for v in e_vars)
    seen: set[int] = set()
    for v in e_vars:
        if not 0 <= v < circuit.num_vars:
            raise ValueError(f"evidence variable {v} out of range 0..{circuit.num_vars - 1}")
        if v in seen:
            raise ValueError(f"evidence variable {v} given twice")
        seen.add(v)
    stream = as_stream(rng)
    if mode == "model":
        joint = sample_joint(circuit, 1, stream)[0]
        return {v: int(joint[v]) for v in e_vars}
    if mode != "uniform":
        raise ValueError("mode must be 'model' or 'uniform'")
    rest = [v for v in range(circuit.num_vars) if v not in seen]
    for _ in range(100):
        bits = (stream.uniform_block(1, max(1, len(e_vars))).ravel() < 0.5).astype(int)
        evidence = {v: int(bits[i]) for i, v in enumerate(e_vars)}
        if evaluate_marginal(circuit, evidence, rest) > -np.inf:
            return evidence
    raise ZeroEvidenceError("uniform evidence sampling exhausted 100 retries")


def draw_instance(circuit: Circuit, proportion: float, mode: str, base: int) -> QuerySpec:
    """The validated spec of the bench trial with base seed `base`: a query
    partition from derive_seed(base, "partition"), `mode` evidence on the
    rest from derive_seed(base, "evidence"), no nuisance variables."""
    n = circuit.num_vars
    query = random_query_partition(n, proportion, DrawStream(derive_seed(base, "partition"))).query_vars
    e_vars = tuple(sorted(set(range(n)) - set(query)))
    spec = QuerySpec(query, draw_evidence(circuit, e_vars, mode, DrawStream(derive_seed(base, "evidence"))), ())
    spec.validate(n)
    return spec


def rank_methods(log_p_hats) -> list[int]:
    """Competition ranks, best first: rank = 1 + #(strictly better)."""
    values = list(log_p_hats)
    if not values:
        raise ValueError("need at least one record to rank")
    return [1 + sum(1 for other in values if other > mine) for mine in values]


def _run_method(method: str, circuit: Circuit, spec: QuerySpec, cfg: BenchConfig, seed: int) -> dict:
    """Run one method; returns the BenchRecord fields its Solution fills in:
    log_p_hat and draws, and cert, epsilon, delta and timed_out when it has
    a certificate."""
    entry = METHODS[method]
    sol = entry.run(
        MethodInputs(
            ConditionalOracle(circuit, spec), PacParams(cfg.epsilon, cfg.delta), cap=cfg.sample_cap,
            budget=cfg.sample_cap, exploit_period=cfg.exploit_period, radius=cfg.radius, rng=DrawStream(seed),
        )
    )
    got = {"log_p_hat": sol.log_p_hat, "draws": sol.draws_used}
    cert = sol.certificate
    if cert is None:
        return got
    if isinstance(cert, Budget):
        # Report the config tolerance with its realized admissible level.
        p_hat = math.exp(sol.log_p_hat)
        delta = 0.0 if cfg.epsilon >= 1.0 - p_hat else pareto_delta(p_hat, cfg.epsilon, sol.draws_used)
        return got | {"cert": cert.kind, "epsilon": cfg.epsilon, "delta": delta, "timed_out": "cap" in entry.reads}
    return got | {"cert": cert.kind, "epsilon": cert.epsilon, "delta": cert.delta}


def run_benchmark(cfg: BenchConfig) -> list[BenchRecord]:
    records: list[BenchRecord] = []
    resolved = [resolve_circuit(spec) for spec in cfg.circuits]
    for ci, (dataset, circuit) in enumerate(resolved):
        for pi, prop in enumerate(cfg.query_proportions):
            for trial in range(cfg.trials):
                base = derive_seed(cfg.seed, ci, pi, trial)
                try:
                    spec = draw_instance(circuit, prop, cfg.evidence_mode, base)
                except Exception as exc:
                    records.append(BenchRecord(dataset, trial, prop, "instance", cert=_why(exc)))
                    continue
                group: list[BenchRecord] = []
                for method in cfg.methods:
                    t0 = time.perf_counter()
                    try:
                        got = _run_method(method, circuit, spec, cfg, derive_seed(base, "method", method))
                    except Exception as exc:
                        got = {"cert": _why(exc)}
                    ms = (time.perf_counter() - t0) * 1000.0
                    group.append(BenchRecord(dataset, trial, prop, method, runtime_ms=ms, **got))
                ok = [r for r in group if r.log_p_hat is not None]
                ranks = rank_methods([r.log_p_hat for r in ok]) if ok else []
                rank_of = {id(r): rank for r, rank in zip(ok, ranks)}
                records.extend(replace(r, rank=rank_of.get(id(r))) for r in group)
    return records


def _why(exc: Exception) -> str:
    """The cert of a record whose instance or method raised: "Type: message"."""
    return f"{type(exc).__name__}: {exc}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def write_records_csv(records, fileobj) -> None:
    """RFC-4180-style CSV with the mandatory header, LF line endings."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(f"{v:.3g}" if k == "runtime_ms" else _fmt(v) for k, v in zip(CSV_COLUMNS, astuple(r)))


def render_summary(records: list[BenchRecord]) -> str:
    """Mean rank per method per (dataset, proportion) plus ranked-highest counts."""
    ranks: dict[tuple, list[int]] = {}  # (proportion, dataset, method) -> ranks in record order
    for r in records:
        if r.rank is not None:
            ranks.setdefault((r.query_prop, r.dataset, r.method), []).append(r.rank)
    methods = list(dict.fromkeys(m for _, _, m in ranks))
    datasets = list(dict.fromkeys(r.dataset for r in records))
    lines = []
    for prop in sorted({r.query_prop for r in records}):
        lines.append(f"== query proportion {prop:g} ==")
        lines.append(f"{'dataset':<28}" + "".join(f"{m:>9}" for m in methods))
        highest = dict.fromkeys(methods, 0)
        for ds in datasets:
            means = {m: sum(rs) / len(rs) for m in methods if (rs := ranks.get((prop, ds, m)))}
            if not means:
                continue
            best = min(means.values())
            for m, mean in means.items():
                if mean == best:
                    highest[m] += 1
            lines.append(f"{ds:<28}" + "".join(f"{means.get(m, float('nan')):>9.2f}" for m in methods))
        lines.append(f"{'ranked highest':<28}" + "".join(f"{highest[m]:>9}" for m in methods))
        lines.append("")
    return "\n".join(lines)
