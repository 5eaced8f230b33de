"""Shared fixtures and independent reference implementations.

The reference evaluator below recurses over the node graph in linear space
with pure Python floats; it shares no code with the packaged level-grouped
log-space evaluator, so agreement between the two is a meaningful check.
"""

from __future__ import annotations


import io
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from pacmap.bench import run_benchmark, write_records_csv
from pacmap.circuit import BernoulliLeaf, Circuit, IndicatorLeaf, ProductNode, SumNode


def ref_complete_prob(circuit: Circuit, bits) -> float:
    """p(x) by direct recursion, linear space."""
    bits = list(bits)
    memo: dict[int, float] = {}

    def value(i: int) -> float:
        if i in memo:
            return memo[i]
        node = circuit.nodes[i]
        if isinstance(node, BernoulliLeaf):
            out = node.theta if bits[node.var] == 1 else 1.0 - node.theta
        elif isinstance(node, IndicatorLeaf):
            out = 1.0 if bits[node.var] == node.value else 0.0
        elif isinstance(node, SumNode):
            out = sum(w * value(c) for w, c in zip(node.weights, node.children))
        else:
            out = 1.0
            for c in node.children:
                out *= value(c)
        memo[i] = out
        return out

    return value(circuit.root)


def ref_marginal_prob(circuit: Circuit, evidence: dict[int, int]) -> float:
    """p(evidence) by exhaustive enumeration of the free variables."""
    free = [v for v in range(circuit.num_vars) if v not in evidence]
    total = 0.0
    bits = [0] * circuit.num_vars
    for v, val in evidence.items():
        bits[v] = val
    for combo in product((0, 1), repeat=len(free)):
        for v, val in zip(free, combo):
            bits[v] = val
        total += ref_complete_prob(circuit, bits)
    return total


def ref_conditional_prob(circuit: Circuit, query_vars, q_bits, evidence: dict[int, int]) -> float:
    """p(q | e) with any remaining variables summed out."""
    joint = dict(evidence)
    joint.update({v: int(b) for v, b in zip(query_vars, q_bits)})
    return ref_marginal_prob(circuit, joint) / ref_marginal_prob(circuit, evidence)


def rat_spn(num_vars: int, depth: int, k: int, repetitions: int, seed: int) -> Circuit:
    """A seeded DAG circuit in the region-graph form of RAT-SPNs (Peharz et
    al., "Random Sum-Product Networks", UAI 2019).

    Each of `repetitions` partitions of the root region, and each region
    below it, splits its variables into two random halves until `depth`
    splits or a single variable.  A leaf region holds k inputs, each a
    product of Bernoulli leaves over its variables (a lone leaf for one);
    every other region holds k sums (the root region one) over the k * k
    products that join one node of each half.  So every input and every
    non-root sum has k parents, where generate_random_circuit gives each
    node one.
    """
    gen = np.random.default_rng(seed)
    nodes: list = []

    def add(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def region(variables: np.ndarray, depth_left: int, count: int, partitions: int = 1) -> list[int]:
        if depth_left == 0 or len(variables) == 1:
            inputs = []
            for _ in range(count):
                leaves = [add(BernoulliLeaf(int(v), float(gen.uniform(0.05, 0.95)))) for v in variables]
                inputs.append(leaves[0] if len(leaves) == 1 else add(ProductNode(tuple(leaves))))
            return inputs
        products = []
        for _ in range(partitions):
            order = gen.permutation(variables)
            half = len(order) // 2
            left, right = region(order[:half], depth_left - 1, k), region(order[half:], depth_left - 1, k)
            products += [add(ProductNode((a, b))) for a in left for b in right]
        return [add(SumNode(tuple(products), tuple(gen.dirichlet(np.ones(len(products)))))) for _ in range(count)]

    (root,) = region(np.arange(num_vars), depth, 1, repetitions)
    return Circuit(nodes, root, num_vars)


def masked_csv(cfg) -> str:
    """The records CSV of a bench run of `cfg` with every runtime_ms zeroed:
    wall time is the one column a run cannot reproduce."""
    buf = io.StringIO()
    write_records_csv([replace(r, runtime_ms=0.0) for r in run_benchmark(cfg)], buf)
    return buf.getvalue()


def total_variation(empirical: np.ndarray, reference: np.ndarray) -> float:
    return 0.5 * float(np.abs(empirical - reference).sum())


@pytest.fixture(scope="session")
def small_circuits():
    """A spread of small generated circuits keyed by (n, seed)."""
    from pacmap.circuit import generate_random_circuit

    out = {}
    for n, seed in [(6, 1), (8, 2), (8, 3), (10, 4), (10, 5), (12, 6)]:
        out[(n, seed)] = generate_random_circuit(n, depth=3, fanout=2, seed=seed)
    return out
