"""Deterministic MAP heuristics used for comparison and warm starts.

All three return a `Solution` with no certificate and no draws, its query
assignment re-scored through the conditional oracle, so probabilities are
comparable across methods; `oracle_calls` counts the rows scored.
Nuisance variables are maximized internally and discarded.  Leaf argmax ties
(theta = 0.5) break to 0, matching the brute-force tie rule.  max_product
and arg_max_product run on the circuit's compiled plan (one bottom-up op
loop, Circuit._max_product) and never look at node objects.
"""

from __future__ import annotations

import time

import numpy as np

from .circuit import MARGINAL, Circuit, _evidence_row
from .inference import ConditionalOracle, QuerySpec, make_oracle
from .solvers import Solution


def _baseline(circuit: Circuit, spec: QuerySpec, oracle: ConditionalOracle | None, amp: bool) -> Solution:
    spec.validate(circuit.num_vars)
    if oracle is not None and (oracle.circuit is not circuit or oracle.spec != spec):
        raise ValueError("oracle was built for another circuit or query spec")
    t0 = time.perf_counter()
    q_hat = circuit._max_product(_evidence_row(circuit.num_vars, spec.evidence), amp)[list(spec.query_vars)]
    if oracle is None:
        oracle = make_oracle(circuit, spec)
    log_p = oracle.conditional_log_prob(q_hat)
    return Solution(q_hat, log_p, None, 0, 1, time.perf_counter() - t0)


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
    p(Q_j=0 | e) (a tie at 0.5 gives 0).
    """
    t0 = time.perf_counter()
    nq = oracle.num_query
    rows = np.full((2 * nq, nq), MARGINAL, dtype=np.int8)
    for j in range(nq):
        rows[2 * j, j] = 1
        rows[2 * j + 1, j] = 0
    marginals = oracle.log_prob_rows(rows)
    q_hat = (marginals[0::2] > marginals[1::2]).astype(np.int8)
    log_p = oracle.conditional_log_prob(q_hat)
    return Solution(q_hat, log_p, None, 0, 2 * nq + 1, time.perf_counter() - t0)
