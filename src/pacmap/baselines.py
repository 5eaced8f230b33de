"""Deterministic MAP heuristics used for comparison and warm starts.

All three return an assignment over the query variables re-scored through
the conditional oracle, so probabilities are comparable across methods.
Nuisance variables are maximized internally and discarded.  Leaf argmax ties
(theta = 0.5) break to 0, matching the brute-force tie rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circuit import MARGINAL, BernoulliLeaf, Circuit, IndicatorLeaf, ProductNode, SumNode
from .inference import ConditionalOracle, QuerySpec, make_oracle


@dataclass(frozen=True)
class BaselineResult:
    q_hat: np.ndarray
    log_p_hat: float
    method: str
    wall_time: float


def _evidence_row(circuit: Circuit, spec: QuerySpec) -> np.ndarray:
    row = np.full(circuit.num_vars, MARGINAL, dtype=np.int8)
    for v, val in spec.evidence.items():
        row[v] = val
    return row


def max_product(circuit: Circuit, spec: QuerySpec, oracle: ConditionalOracle | None = None) -> BaselineResult:
    """Linear-time heuristic: one max-sum upward pass, one argmax trace down.

    At sum nodes the trace follows the child attaining the weighted max
    (first one on ties); at product nodes it descends everywhere; free leaves
    contribute their own argmax value.
    """
    spec.validate(circuit.num_vars)
    t0 = time.perf_counter()
    row = _evidence_row(circuit, spec)
    values = circuit.max_forward(row)[:, 0]

    assignment = row.copy()
    stack = [circuit.root]
    while stack:
        i = stack.pop()
        node = circuit.nodes[i]
        if isinstance(node, SumNode):
            scores = np.log(node.weights) + values[list(node.children)]
            stack.append(node.children[int(np.argmax(scores))])
        elif isinstance(node, ProductNode):
            stack.extend(node.children)
        else:
            var = node.var
            if assignment[var] != MARGINAL:
                continue
            if isinstance(node, BernoulliLeaf):
                assignment[var] = 1 if node.theta > 0.5 else 0
            else:
                assignment[var] = node.value

    q_hat = assignment[list(spec.query_vars)].copy()
    if oracle is None:
        oracle = make_oracle(circuit, spec)
    log_p = oracle.conditional_log_prob(q_hat)
    return BaselineResult(q_hat, log_p, "mp", time.perf_counter() - t0)


def arg_max_product(circuit: Circuit, spec: QuerySpec, oracle: ConditionalOracle | None = None) -> BaselineResult:
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
    spec.validate(circuit.num_vars)
    t0 = time.perf_counter()
    evidence_row = _evidence_row(circuit, spec)
    nn, n = len(circuit.nodes), circuit.num_vars
    max_vals = circuit.max_forward(evidence_row)[:, 0]
    cand = np.full((nn, n), MARGINAL, dtype=np.int8)
    trace = np.full((nn, n), MARGINAL, dtype=np.int8)

    for i, node in enumerate(circuit.nodes):
        if isinstance(node, (BernoulliLeaf, IndicatorLeaf)):
            var = node.var
            if evidence_row[var] != MARGINAL:
                value = evidence_row[var]
            elif isinstance(node, BernoulliLeaf):
                value = 1 if node.theta > 0.5 else 0
            else:
                value = node.value
            cand[i, var] = value
            trace[i, var] = value
        elif isinstance(node, ProductNode):
            for ch in node.children:
                set_mask = cand[ch] != MARGINAL
                cand[i, set_mask] = cand[ch, set_mask]
                trace[i, set_mask] = trace[ch, set_mask]
        else:
            best_child = int(np.argmax(np.log(node.weights) + max_vals[list(node.children)]))
            trace[i] = trace[node.children[best_child]]
            rows = np.concatenate([cand[list(node.children)], trace[i][None, :]])
            scores = circuit.log_forward(rows)[i]
            cand[i] = rows[int(np.argmax(scores))]

    q_hat = cand[circuit.root][list(spec.query_vars)].copy()
    if oracle is None:
        oracle = make_oracle(circuit, spec)
    log_p = oracle.conditional_log_prob(q_hat)
    return BaselineResult(q_hat, log_p, "amp", time.perf_counter() - t0)


def independent_map(oracle: ConditionalOracle) -> BaselineResult:
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
    return BaselineResult(q_hat, log_p, "ind", time.perf_counter() - t0)
