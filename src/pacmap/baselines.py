"""Deterministic MAP heuristics used for comparison and warm starts.

All three return a `Solution` with no certificate and no draws, its query
assignment scored as ln p(q | e), so probabilities are comparable across
methods; `oracle_calls` counts the rows scored.  Each baseline scores its
rows, one for max_product and arg_max_product and 2|Q| + 1 for
independent_map, by full passes of the circuit with the evidence filled in,
each batch with the evidence row itself last for ln p(e) (see _conditional);
these give the bytes of the oracle's scoring plan and ln p(e) without
building either.
Nuisance variables are maximized internally and discarded.  Leaf argmax ties
(theta = 0.5) break to 0, matching the brute-force tie rule.  max_product
and arg_max_product run on the circuit's compiled plan (Circuit._max_product:
mp walks down from the root, amp runs one bottom-up op loop) and never look
at node objects.
"""

from __future__ import annotations

import time

import numpy as np

from .circuit import Circuit, _evidence_row
from .inference import ConditionalOracle, QuerySpec, ZeroEvidenceError
from .solvers import Solution


def _conditional(circuit: Circuit, rows: np.ndarray) -> np.ndarray:
    """ln p(row | e) of every row of `rows` but the last, which holds the
    evidence alone, in one full pass; ZeroEvidenceError where p(e) = 0."""
    log_p = circuit._root(rows, circuit._plan)
    if log_p[-1] == -np.inf:
        raise ZeroEvidenceError("evidence has probability zero under the circuit")
    return log_p[:-1] - log_p[-1]


def _baseline(circuit: Circuit, spec: QuerySpec, oracle: ConditionalOracle | None, amp: bool) -> Solution:
    spec.validate(circuit.num_vars)
    if oracle is not None and (oracle.circuit is not circuit or oracle.spec != spec):
        raise ValueError("oracle was built for another circuit or query spec")
    t0 = time.perf_counter()
    row, query = _evidence_row(circuit.num_vars, spec.evidence), list(spec.query_vars)
    q_hat = circuit._max_product(row, amp)[query]
    rows = np.stack((row, row))
    rows[0, query] = q_hat
    return Solution(q_hat, float(_conditional(circuit, rows)[0]), None, 0, 1, time.perf_counter() - t0)


def max_product(circuit: Circuit, spec: QuerySpec, oracle: ConditionalOracle | None = None) -> Solution:
    """Linear-time heuristic: one max-sum upward pass, one argmax trace.

    At sum nodes the trace follows the child attaining the weighted max
    (first one on ties); at product nodes it takes every child; free leaves
    contribute their own argmax value.
    """
    return _baseline(circuit, spec, oracle, amp=False)


def arg_max_product(circuit: Circuit, spec: QuerySpec, oracle: ConditionalOracle | None = None) -> Solution:
    """Quadratic-time candidate propagation.

    Every node carries a candidate assignment to the free variables in its
    scope: leaves use their argmax (evidence leaves the fixed value),
    products concatenate disjoint child candidates, and sums score the
    children's candidates together with the subcircuit's own weighted-max
    trace under the sum node's true distribution, keeping the best.  Scoring
    the trace makes the root candidate provably at least as probable as the
    max_product answer (leaves tie, products multiply the per-child
    dominance, sums enforce it directly).  The root candidate is projected
    onto the query set.
    """
    return _baseline(circuit, spec, oracle, amp=True)


def independent_map(oracle: ConditionalOracle) -> Solution:
    """Set each query variable to its univariate conditional argmax.

    Uses 2|Q| marginal evaluations, two per variable with every other free
    variable summed out; q_j = 1 only when p(Q_j=1 | e) strictly exceeds
    p(Q_j=0 | e) (a tie at 0.5 gives 0).  The marginals and the answer are
    scored by full passes over rows with the evidence filled in, which give
    the bytes of the oracle's scoring plan without building it.
    """
    if not isinstance(oracle, ConditionalOracle):
        raise ValueError("independent_map needs a circuit's ConditionalOracle")
    t0 = time.perf_counter()
    circuit, query, nq = oracle.circuit, list(oracle.spec.query_vars), oracle.num_query
    rows = np.repeat(_evidence_row(circuit.num_vars, oracle.spec.evidence)[None, :], 2 * nq + 1, axis=0)
    rows[2 * np.arange(nq), query] = 1
    rows[2 * np.arange(nq) + 1, query] = 0
    marginals = _conditional(circuit, rows)
    q_hat = (marginals[0::2] > marginals[1::2]).astype(np.int8)
    rows[0, query] = q_hat
    log_p = float(_conditional(circuit, rows[[0, -1]])[0])
    return Solution(q_hat, log_p, None, 0, 2 * nq + 1, time.perf_counter() - t0)
