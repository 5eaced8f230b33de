"""A differential sweep over DAG-shaped circuits.

generate_random_circuit gives every node one parent; the RAT-SPN
region-graph circuits of conftest.rat_spn give most inputs and sums several.
Those are the circuits on which the sampler's row sharing, the scoring
plan's table leaves read by two parents and the ball plan's slots must hold.
Every check is against conftest's recursive reference or brute force, which
share no code with the compiled plans.  Query, evidence and nuisance ids are
numpy integers throughout.
"""

import math

import numpy as np
import pytest

from pacmap.baselines import arg_max_product, max_product
from pacmap.circuit import MARGINAL, bits_to_index, enumerate_assignments, pack_rows
from pacmap.inference import QuerySpec, brute_force_map, make_oracle, sample_joint, tabulate_conditional
from pacmap.rng import DrawStream
from pacmap.solvers import hamming_ball
from conftest import rat_spn, ref_marginal_prob, total_variation

# (variables, depth, k, repetitions, seed)
CASES = [
    (5, 1, 2, 1, 0), (6, 2, 3, 1, 1), (7, 2, 2, 2, 2), (8, 2, 3, 2, 3), (9, 3, 2, 2, 4), (10, 2, 4, 1, 5),
    (12, 3, 3, 2, 6), (14, 3, 2, 3, 7), (16, 3, 3, 2, 8),
]


def _problem(num_vars, depth, k, repetitions, seed):
    """The circuit and a spec with half the variables queried (at most
    eight), two nuisance variables and evidence from a joint draw."""
    c = rat_spn(num_vars, depth, k, repetitions, seed)
    order = np.random.default_rng(seed).permutation(num_vars)
    nq = min(8, num_vars // 2)
    x = sample_joint(c, 1, seed)[0]
    spec = QuerySpec(tuple(order[:nq]), {v: int(x[v]) for v in order[nq:-2]}, tuple(order[-2:]))
    return c, spec


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_dag_oracle_matches_the_references(case):
    c, spec = _problem(*case)
    oracle = make_oracle(c, spec)
    query, nq = list(spec.query_vars), oracle.num_query
    p_e = ref_marginal_prob(c, spec.evidence)

    def ref_log(row):
        joint = dict(spec.evidence)
        joint.update({v: int(b) for v, b in zip(query, row) if b != MARGINAL})
        return math.log(ref_marginal_prob(c, joint) / p_e)

    # Full rows: every query assignment, in bits_to_index order.
    full = enumerate_assignments(nq)
    want = np.array([ref_log(row) for row in full])
    got = oracle.log_prob_rows(full)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    # Partial rows, with MARGINAL entries summed out.
    gen = np.random.default_rng(case[-1])
    partial = np.where(gen.random((8, nq)) < 0.3, MARGINAL, full[gen.integers(0, 2**nq, 8)]).astype(np.int8)
    np.testing.assert_allclose(oracle.log_prob_rows(partial), [ref_log(row) for row in partial], rtol=1e-9)

    # A radius-1 ball takes the ball plan, which gives the bytes of scoring
    # each row alone.
    ball = hamming_ball(full[gen.integers(0, 2**nq)], 1)
    scores = oracle.log_prob_rows(ball)
    assert scores.tobytes() == np.concatenate([oracle.log_prob_rows(row[None]) for row in ball]).tobytes()
    np.testing.assert_allclose(scores, want[pack_rows(ball).astype(np.intp)], rtol=1e-9)

    # Sampler fidelity: an exact sampler's expected total variation over N
    # draws is below 0.4 sqrt(2^|Q| / N), and the bound allows 2.5 times that.
    draws = oracle.sample(20_000, DrawStream(case[-1]))
    emp = np.bincount(pack_rows(draws).astype(np.intp), minlength=2**nq) / len(draws)
    assert total_variation(emp, np.exp(want)) <= math.sqrt(2**nq / len(draws))

    # The baselines rescore their answers with the oracle's bytes, amp is at
    # least mp, and brute force over the oracle finds the reference mode.
    q_star, log_p_star = brute_force_map(tabulate_conditional(oracle))
    assert bits_to_index(q_star) == int(np.argmax(want))
    mp, amp = max_product(c, spec), arg_max_product(c, spec)
    for res in (mp, amp):
        assert res.log_p_hat == oracle.conditional_log_prob(res.q_hat)
        assert res.log_p_hat == pytest.approx(want[bits_to_index(res.q_hat)], rel=1e-9)
        assert res.log_p_hat <= log_p_star + 1e-12
    assert amp.log_p_hat >= mp.log_p_hat
