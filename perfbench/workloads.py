"""Benchmark workloads: instance generation from a workload seed, and one solve.

A workload is a fixed list of solves (one pass).  Every input of a pass is a
pure function of the workload seed, so a pass can be replayed any number of
times and must return the same answers each time.  Seeds follow
``pacmap.bench.run_benchmark``: the corpus instance for (circuit ci,
proportion pi, trial t) uses ``derive_seed(seed, ci, pi, t)``, and each method
gets ``derive_seed(base, "method", method)``.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from pacmap.baselines import arg_max_product, independent_map, max_product
from pacmap.bench import draw_evidence, random_query_partition, resolve_circuit
from pacmap.circuit import Circuit
from pacmap.inference import QuerySpec, TabularDistribution, make_oracle
from pacmap.rng import DrawStream, derive_seed
from pacmap.solvers import PacParams, budget_pac_map, pac_map, smooth_pac_map

from tracing import TimedOracle, Tracer

SAMPLING_METHODS = ("pac", "smooth", "budget")
ADAPTIVE_METHODS = ("pac", "smooth")
BASELINE_METHODS = ("mp", "amp", "ind")
SOLVER_FUNCTIONS = {"pac": "pac_map", "smooth": "smooth_pac_map", "budget": "budget_pac_map"}

CORPUS_CIRCUITS = (
    "gen:n=16/depth=3/fanout=2/seed=101",
    "gen:n=32/depth=3/fanout=2/seed=202",
    "gen:n=64/depth=3/fanout=2/seed=303",
)
STRESS_CIRCUIT = "gen:n=256/depth=3/fanout=2/seed=404"

# Criterion 3's tabular generator: dimension and Dirichlet concentration cycle
# independently, so every 12 consecutive tables cover each pair once.
TABULAR_DIMS = (6, 8, 10)
TABULAR_ALPHAS = (0.05, 0.15, 0.5, 1.0)

# Solver settings every workload shares (the paper's epsilon = delta = 0.01).
EPSILON = 0.01
DELTA = 0.01
EXPLOIT_PERIOD = 100
RADIUS = 1


@dataclass(frozen=True)
class Settings:
    """The solver settings that differ between workloads."""

    cap: int | None = None
    batch_size: int = 5000
    budget: int = 0


@dataclass(frozen=True)
class Instance:
    """One MAP query: a circuit with a query/evidence split, or an explicit table."""

    label: str
    circuit: Circuit | None = None
    spec: QuerySpec | None = None
    table: TabularDistribution | None = None

    @property
    def num_query(self) -> int:
        return self.table.num_query if self.table is not None else len(self.spec.query_vars)


@dataclass(frozen=True)
class Solve:
    """One method call on one instance, as part of query `query`.

    A query is what one user asks for: the corpus answers each instance with
    all five methods and ranks them, so its five solves form one query;
    elsewhere every solve is a query of its own.
    """

    query: int
    instance: int
    method: str
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    settings: Settings
    instances: tuple[Instance, ...]
    solves: tuple[Solve, ...]

    def digest(self) -> str:
        """Digest of every generated input, for determinism checks."""
        h = hashlib.sha256(repr(self.settings).encode())
        for inst in self.instances:
            h.update(inst.label.encode())
            if inst.table is not None:
                h.update(inst.table.log_probs.tobytes())
            else:
                h.update(repr((inst.spec.query_vars, sorted(inst.spec.evidence.items()))).encode())
        for s in self.solves:
            h.update(repr((s.query, s.instance, s.method, s.seed)).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class Answer:
    q_hat: np.ndarray
    log_p_hat: float
    cert: str  # certificate kind; "" for the deterministic baselines
    draws: int

    def key(self) -> tuple:
        return (self.q_hat.tobytes(), self.cert, self.draws, self.log_p_hat)


def _circuit_instances(
    circuits: tuple[str, ...], proportions: tuple[float, ...], trials: int, seed: int
) -> list[tuple[Instance, int]]:
    """Instances drawn as run_benchmark draws them, each with its base seed.

    They are returned trial by trial, each trial cycling through every circuit
    and proportion, so that each kind of instance is spread over the whole
    pass and no metric hangs on the host's speed in one stretch of it.
    """
    out = []
    for ci, ref in enumerate(circuits):
        dataset, circuit = resolve_circuit(ref)
        n = circuit.num_vars
        for pi, prop in enumerate(proportions):
            for trial in range(trials):
                base = derive_seed(seed, ci, pi, trial)
                part = random_query_partition(n, prop, DrawStream(derive_seed(base, "partition")))
                e_vars = tuple(v for v in range(n) if v not in set(part.query_vars))
                evidence = draw_evidence(circuit, e_vars, "model", DrawStream(derive_seed(base, "evidence")))
                spec = QuerySpec(part.query_vars, evidence, ())
                spec.validate(n)
                out.append(((trial, ci, pi), Instance(f"{dataset}/q={prop:g}/t={trial}", circuit, spec), base))
    return [(inst, base) for _, inst, base in sorted(out, key=lambda item: item[0])]


def _with_methods(name, settings, drawn, methods) -> Workload:
    """Every method on every instance; the solves of one instance form one query."""
    instances = tuple(inst for inst, _ in drawn)
    solves = tuple(
        Solve(i, i, m, derive_seed(base, "method", m)) for i, (_, base) in enumerate(drawn) for m in methods
    )
    return Workload(name, settings, instances, solves)


def build_workload(name: str, seed: int) -> Workload:
    """Generate every input of one pass of workload `name` from `seed`."""
    if name == "corpus":
        # Criterion 8 caps at 20000 draws, but then the five n=64/share-0.5 smooth
        # solves of a five-trial pass take over half a run, and solves_per_s
        # spread 0.36 over ten seeds.  Cap 5000 lets the acceptance corpus's ten
        # trials fit one run instead.
        settings = Settings(cap=5000)
        drawn = _circuit_instances(CORPUS_CIRCUITS, (0.10, 0.25, 0.50), 10, seed)
        return _with_methods(name, settings, drawn, ("pac", "smooth", "mp", "amp", "ind"))
    if name == "tabular":
        settings = Settings(batch_size=2048)
        instances, solves = [], []
        for k in range(480):
            n = TABULAR_DIMS[k % len(TABULAR_DIMS)]
            alpha = TABULAR_ALPHAS[k % len(TABULAR_ALPHAS)]
            gen = np.random.default_rng(derive_seed(seed, "table", k))
            table = TabularDistribution.from_probs(gen.dirichlet(np.full(2**n, alpha)))
            instances.append(Instance(f"dim={n}/alpha={alpha:g}/k={k}", table=table))
            solves.extend(Solve(4 * k + r, k, "pac", derive_seed(seed, "run", k, r)) for r in range(4))
        return Workload(name, settings, tuple(instances), tuple(solves))
    if name == "stress-budget":
        settings = Settings(budget=20_000)
        drawn = _circuit_instances((STRESS_CIRCUIT,), (0.10, 0.25, 0.50), 3, seed)
        return _with_methods(name, settings, drawn, ("budget",))
    if name == "stress-smooth":
        settings = Settings(cap=5000)
        drawn = _circuit_instances((STRESS_CIRCUIT,), (0.25, 0.50), 6, seed)
        return _with_methods(name, settings, drawn, ("smooth",))
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


WORKLOADS = ("corpus", "tabular", "stress-budget", "stress-smooth")


def run_solve(wl: Workload, solve: Solve, tracer: Tracer | None = None) -> Answer:
    """Run one solve as run_benchmark times it: oracle build plus method call.

    With a tracer, the oracle build, the solver or baseline call, and (through
    a TimedOracle) every sample and scoring call are recorded as spans.
    """
    inst, cfg = wl.instances[solve.instance], wl.settings
    span = tracer.span if tracer is not None else _untraced
    if inst.table is not None:
        oracle = inst.table
    else:
        with span("inference.build"):
            oracle = make_oracle(inst.circuit, inst.spec)

    method = solve.method
    if method in BASELINE_METHODS:
        with span(f"baselines.{method}"):
            if method == "mp":
                res = max_product(inst.circuit, inst.spec, oracle=oracle)
            elif method == "amp":
                res = arg_max_product(inst.circuit, inst.spec, oracle=oracle)
            else:
                res = independent_map(oracle)
        return Answer(res.q_hat, res.log_p_hat, "", 0)

    solver_oracle = TimedOracle(oracle, tracer) if tracer is not None else oracle
    params = PacParams(EPSILON, DELTA)
    stream = DrawStream(solve.seed)
    with span(f"solvers.{SOLVER_FUNCTIONS[method]}"):
        if method == "pac":
            sol = pac_map(solver_oracle, params, cap=cfg.cap, rng=stream, batch_size=cfg.batch_size)
        elif method == "smooth":
            sol = smooth_pac_map(
                solver_oracle,
                params,
                radius=RADIUS,
                exploit_period=EXPLOIT_PERIOD,
                cap=cfg.cap,
                rng=stream,
                batch_size=cfg.batch_size,
            )
        elif method == "budget":
            sol, _ = budget_pac_map(solver_oracle, cfg.budget, rng=stream)
        else:
            raise ValueError(f"unknown method {method!r}")
    return Answer(sol.q_hat, sol.log_p_hat, sol.certificate.kind, sol.draws_used)


def _untraced(name: str, rows: int = 0) -> nullcontext:
    return nullcontext()


def warm_up(wl: Workload) -> None:
    """Build one oracle, then sample and score a few rows, so that first-call costs fall in set-up."""
    inst = wl.instances[0]
    oracle = inst.table if inst.table is not None else make_oracle(inst.circuit, inst.spec)
    oracle.log_prob_rows(oracle.sample(64, DrawStream(0)))
