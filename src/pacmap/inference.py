"""Conditional queries and sampling over a circuit.

The two primitives every solver needs: exact evaluation of p(q | e) and
i.i.d. draws from P(Q | e), plus an exhaustive tabular distribution used as
ground truth at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuit import (
    _CHUNK_ELEMS,
    MARGINAL,
    BernoulliLeaf,
    Circuit,
    ProductNode,
    SumNode,
    enumerate_assignments,
)
from .rng import DrawStream, as_stream, counter_uniforms

_TABULAR_CAP = 24


class ZeroEvidenceError(ValueError):
    """The conditioning event has probability zero; no conditional exists."""


@dataclass(frozen=True)
class QuerySpec:
    """Partition of circuit variables into query, evidence and nuisance sets."""

    query_vars: tuple[int, ...]
    evidence: dict[int, int] = field(default_factory=dict)
    nuisance_vars: tuple[int, ...] = ()

    def validate(self, num_vars: int) -> None:
        q, e, v = set(self.query_vars), set(self.evidence), set(self.nuisance_vars)
        if not self.query_vars:
            raise ValueError("query set must be nonempty")
        if len(q) != len(self.query_vars) or len(v) != len(self.nuisance_vars):
            raise ValueError("duplicate variable within a set")
        if q & e or q & v or e & v:
            raise ValueError("query, evidence and nuisance sets must be disjoint")
        union = q | e | v
        if union != set(range(num_vars)):
            raise ValueError(f"sets cover {sorted(union)}, expected all of 0..{num_vars - 1}")
        if any(val not in (0, 1) for val in self.evidence.values()):
            raise ValueError("evidence values must be 0 or 1")


def parse_query_spec(text: str, num_vars: int) -> QuerySpec:
    """Parse `Q <var>` / `E <var> <0|1>` / `V <var>` lines.

    Variables not mentioned default to nuisance; mentioning a variable twice
    is an error.
    """
    qs: list[int] = []
    ev: dict[int, int] = {}
    vs: list[int] = []
    seen: set[int] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            var = int(tokens[1])
        except (IndexError, ValueError):
            raise ValueError(f"query spec line {ln}: expected 'Q|E|V <var> ...'") from None
        if not (0 <= var < num_vars):
            raise ValueError(f"query spec line {ln}: variable {var} out of range")
        if var in seen:
            raise ValueError(f"query spec line {ln}: variable {var} mentioned twice")
        seen.add(var)
        if tokens[0] == "Q" and len(tokens) == 2:
            qs.append(var)
        elif tokens[0] == "E" and len(tokens) == 3 and tokens[2] in ("0", "1"):
            ev[var] = int(tokens[2])
        elif tokens[0] == "V" and len(tokens) == 2:
            vs.append(var)
        else:
            raise ValueError(f"query spec line {ln}: malformed directive {line!r}")
    vs.extend(v for v in range(num_vars) if v not in seen)
    return QuerySpec(tuple(qs), ev, tuple(vs))


class ConditionalOracle:
    """Exact p(q | e) queries and i.i.d. conditional sampling.

    Construction runs one upward pass with evidence fixed and query/nuisance
    variables summed out, caching ln p(e) and the per-sum-node child-descent
    distributions.  Instances are immutable and shareable; sampling draws are
    indexed by a counter-based stream, so results do not depend on batching.
    """

    def __init__(self, circuit: Circuit, spec: QuerySpec):
        spec.validate(circuit.num_vars)
        self.circuit = circuit
        self.spec = spec
        self.query_vars = np.asarray(spec.query_vars, dtype=np.int64)
        self.num_query = len(spec.query_vars)

        template = np.full(circuit.num_vars, MARGINAL, dtype=np.int8)
        for v, val in spec.evidence.items():
            template[v] = val
        self._template = template
        upward = circuit.log_forward(template[None, :])[:, 0]
        self.log_p_evidence = float(upward[circuit.root])
        if self.log_p_evidence == -np.inf:
            raise ZeroEvidenceError("evidence has probability zero under the circuit")
        self._upward = upward

        # Per sum node: cumulative child-selection probabilities under the
        # cached upward pass, and the last child with positive mass (a float
        # cumsum can end below 1, and a draw past it must not land in a
        # zero-mass child).  Unreachable (zero-mass) nodes keep None.
        cums: list[np.ndarray | None] = [None] * len(circuit.nodes)
        last_live = [0] * len(circuit.nodes)
        for i, node in enumerate(circuit.nodes):
            if isinstance(node, SumNode) and upward[i] > -np.inf:
                probs = np.exp(np.log(node.weights) + upward[list(node.children)] - upward[i])
                cums[i] = np.cumsum(probs)
                last_live[i] = int(np.flatnonzero(probs > 0.0)[-1])
        self._sum_cums = cums
        self._sum_last_live = last_live
        self._evidence_mask = np.zeros(circuit.num_vars, dtype=bool)
        for v in spec.evidence:
            self._evidence_mask[v] = True

    # -- exact queries ------------------------------------------------------

    def log_prob_rows(self, query_rows: np.ndarray) -> np.ndarray:
        """ln p(q | e) for a batch of query assignments, shape (B, |Q|).

        Entries left at MARGINAL are summed out, so partial rows yield
        conditional marginals of the assigned variables; any entry other than
        0, 1 and MARGINAL is refused.
        """
        query_rows = np.atleast_2d(np.asarray(query_rows))
        if query_rows.shape[1] != self.num_query:
            raise ValueError(f"query rows have {query_rows.shape[1]} vars, expected {self.num_query}")
        if not ((query_rows == 0) | (query_rows == 1) | (query_rows == MARGINAL)).all():
            raise ValueError("query entries must be 0, 1 or MARGINAL")
        rows = np.repeat(self._template[None, :], query_rows.shape[0], axis=0)
        rows[:, self.query_vars] = query_rows
        return self.circuit.log_root(rows) - self.log_p_evidence

    def conditional_log_prob(self, query: Sequence[int] | np.ndarray) -> float:
        q = np.asarray(query, dtype=np.int8)
        if q.ndim != 1:
            raise ValueError("single query assignment expected")
        return float(self.log_prob_rows(q[None, :])[0])

    # -- sampling -----------------------------------------------------------

    def sample(self, count: int, rng: int | DrawStream) -> np.ndarray:
        """Draw i.i.d. samples from P(Q | e); returns (count, |Q|) int8.

        Ancestral descent from the root: sum nodes pick one child with the
        cached conditional probabilities, product nodes descend everywhere,
        free leaves sample their variable and evidence leaves keep the fixed
        value.  Nuisance values are discarded by the final projection onto
        the query columns.  Draw j always consumes substream j; the uniform
        for (draw, node) is a pure counter function, so it is materialized
        only where the descent actually lands.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        stream = as_stream(rng)
        nn = len(self.circuit.nodes)
        chunk = max(1, _CHUNK_ELEMS // nn)
        parts = []
        remaining = count
        while remaining > 0:
            take = min(chunk, remaining)
            parts.append(self._descend(stream.seed, stream.cursor, take))
            stream.cursor += take
            remaining -= take
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _descend(self, seed: int, base: int, b: int) -> np.ndarray:
        circuit, nn = self.circuit, len(self.circuit.nodes)
        width = np.uint64(nn)
        bits = np.repeat(self._template[None, :], b, axis=0)
        active = np.zeros((nn, b), dtype=bool)
        active[circuit.root] = True

        def uniforms_at(rows: np.ndarray, node_id: int) -> np.ndarray:
            counters = (np.uint64(base) + rows.astype(np.uint64)) * width + np.uint64(node_id)
            return counter_uniforms(seed, counters)

        for i in range(nn - 1, -1, -1):
            mask = active[i]
            if not mask.any():
                continue
            node = circuit.nodes[i]
            if isinstance(node, SumNode):
                cum = self._sum_cums[i]
                rows = np.nonzero(mask)[0]
                choice = np.searchsorted(cum, uniforms_at(rows, i), side="right")
                np.clip(choice, 0, self._sum_last_live[i], out=choice)
                for k, ch in enumerate(node.children):
                    sel = rows[choice == k]
                    if sel.size:
                        active[ch, sel] = True
            elif isinstance(node, ProductNode):
                for ch in node.children:
                    active[ch] |= mask
            else:
                var = node.var
                if self._evidence_mask[var]:
                    continue
                if isinstance(node, BernoulliLeaf):
                    rows = np.nonzero(mask)[0]
                    bits[rows, var] = (uniforms_at(rows, i) < node.theta).astype(np.int8)
                else:
                    bits[mask, var] = node.value
        return bits[:, self.query_vars]


def make_oracle(circuit: Circuit, spec: QuerySpec) -> ConditionalOracle:
    """Build a conditional oracle; raises ZeroEvidenceError when p(e) = 0."""
    return ConditionalOracle(circuit, spec)


def sample_joint(circuit: Circuit, count: int, rng: int | DrawStream) -> np.ndarray:
    """Unconditional ancestral samples of all circuit variables."""
    spec = QuerySpec(tuple(range(circuit.num_vars)))
    return ConditionalOracle(circuit, spec).sample(count, rng)


# -- exhaustive ground truth --------------------------------------------------


class TabularDistribution:
    """Explicit pmf over n <= 24 binary query variables.

    Indexing follows bits_to_index: entry i is the probability of the
    assignment whose big-endian bit pattern is i.  Exposes the same
    sample/log_prob_rows surface as ConditionalOracle, so solvers run
    directly against it.
    """

    def __init__(self, log_probs: np.ndarray, check_tol: float = 1e-6):
        log_probs = np.asarray(log_probs, dtype=np.float64)
        n = int(np.log2(len(log_probs)))
        if 2**n != len(log_probs):
            raise ValueError("table length must be a power of two")
        if n > _TABULAR_CAP:
            raise ValueError(f"table dimension {n} exceeds cap {_TABULAR_CAP}")
        total = np.exp(np.logaddexp.reduce(log_probs))
        if abs(total - 1.0) > check_tol:
            raise ValueError(f"table mass {total!r} deviates from 1 beyond {check_tol}")
        self.log_probs = log_probs
        self.num_query = n
        self._cdf = np.cumsum(np.exp(log_probs))
        # A draw past the cdf's end (its mass may fall short of 1 within
        # check_tol) must land on an atom with positive mass: the first one at
        # which the cdf reaches its end.
        self._last_live = int(np.searchsorted(self._cdf, self._cdf[-1]))

    @classmethod
    def from_probs(cls, probs: Sequence[float] | np.ndarray) -> "TabularDistribution":
        p = np.asarray(probs, dtype=np.float64)
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        p = p / p.sum()
        with np.errstate(divide="ignore"):
            return cls(np.log(p), check_tol=1e-9)

    def log_prob_rows(self, query_rows: np.ndarray) -> np.ndarray:
        """ln p(q) for complete 0/1 query rows; MARGINAL entries are refused."""
        query_rows = np.atleast_2d(np.asarray(query_rows))
        if query_rows.shape[1] != self.num_query:
            raise ValueError("query arity mismatch")
        if query_rows.size and (query_rows.min() < 0 or query_rows.max() > 1):
            raise ValueError("tabular query rows must be 0/1 valued")
        shifts = np.arange(self.num_query - 1, -1, -1, dtype=np.int64)
        idx = (query_rows.astype(np.int64) << shifts).sum(axis=1)
        return self.log_probs[idx]

    def conditional_log_prob(self, query) -> float:
        return float(self.log_prob_rows(np.asarray(query)[None, :])[0])

    def sample(self, count: int, rng: int | DrawStream) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        stream = as_stream(rng)
        u = stream.uniform_block(count, 1).ravel()
        idx = np.searchsorted(self._cdf, u, side="right")
        np.clip(idx, 0, self._last_live, out=idx)
        shifts = np.arange(self.num_query - 1, -1, -1, dtype=np.int64)
        return ((idx[:, None] >> shifts) & 1).astype(np.int8)


def tabulate_conditional(oracle: ConditionalOracle) -> TabularDistribution:
    """Exhaustive table of ln p(q | e) over all 2^|Q| query assignments."""
    if oracle.num_query > _TABULAR_CAP:
        raise ValueError(f"|Q| = {oracle.num_query} exceeds tabulation cap {_TABULAR_CAP}")
    rows = enumerate_assignments(oracle.num_query)
    return TabularDistribution(oracle.log_prob_rows(rows))


def brute_force_map(table: TabularDistribution) -> tuple[np.ndarray, float]:
    """Exact mode by full scan; ties resolve to the smallest bit pattern."""
    idx = int(np.argmax(table.log_probs))
    n = table.num_query
    bits = ((idx >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    return bits, float(table.log_probs[idx])


def superlevel_mass(table: TabularDistribution, epsilon: float) -> float:
    """Total probability of atoms within a factor 1 - epsilon of the mode."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    log_pstar = float(np.max(table.log_probs))
    threshold = log_pstar + np.log1p(-epsilon)
    selected = table.log_probs[table.log_probs >= threshold]
    return float(np.exp(np.logaddexp.reduce(selected)))


def min_entropy(p_star: float) -> float:
    """Bits encoded by the mode: -log2(p*)."""
    if not (0.0 < p_star <= 1.0):
        raise ValueError("p_star must lie in (0, 1]")
    return float(-np.log2(p_star))
