import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacmap.circuit import circuit_from_pmf, generate_random_circuit, pack_rows, parse_circuit
from pacmap.inference import (
    QuerySpec,
    TabularDistribution,
    ZeroEvidenceError,
    brute_force_map,
    make_oracle,
    min_entropy,
    parse_query_spec,
    sample_joint,
    superlevel_mass,
    tabulate_conditional,
)
from pacmap.rng import DrawStream
from conftest import ref_conditional_prob, ref_marginal_prob, total_variation

BERN7 = parse_circuit("spn v1\nvars 1\nleaf 0 bernoulli 0 0.7\nroot 0\n")
POINT_MASS = circuit_from_pmf([0.0, 0.0, 1.0, 0.0])  # mode at bits 10


# -- query specs --------------------------------------------------------------


def test_query_spec_validation():
    QuerySpec((0, 1), {2: 1}, (3,)).validate(4)
    with pytest.raises(ValueError, match="nonempty"):
        QuerySpec(()).validate(2)
    with pytest.raises(ValueError, match="disjoint"):
        QuerySpec((0,), {0: 1}).validate(1)
    with pytest.raises(ValueError, match="cover"):
        QuerySpec((0,)).validate(2)


def test_parse_query_spec_defaults_to_nuisance():
    spec = parse_query_spec("Q 0\nE 2 1\n", 4)
    assert spec.query_vars == (0,)
    assert spec.evidence == {2: 1}
    assert spec.nuisance_vars == (1, 3)
    with pytest.raises(ValueError, match="twice"):
        parse_query_spec("Q 0\nV 0\n", 2)
    with pytest.raises(ValueError, match="malformed"):
        parse_query_spec("E 0\n", 2)


# -- oracle construction ------------------------------------------------------


def test_empty_evidence_normalizes():
    oracle = make_oracle(BERN7, QuerySpec((0,)))
    assert oracle.log_p_evidence == pytest.approx(0.0, abs=1e-12)


def test_zero_probability_evidence_raises():
    with pytest.raises(ZeroEvidenceError):
        make_oracle(POINT_MASS, QuerySpec((0,), {1: 1}))


def test_cached_evidence_matches_enumeration(small_circuits):
    c = small_circuits[(10, 5)]
    evidence = {1: 0, 4: 1, 8: 1}
    spec = QuerySpec(tuple(v for v in range(10) if v not in evidence), evidence)
    oracle = make_oracle(c, spec)
    assert oracle.log_p_evidence == pytest.approx(math.log(ref_marginal_prob(c, evidence)), rel=1e-9)


# -- conditional probabilities ------------------------------------------------


def test_point_mass_conditional_is_one():
    oracle = make_oracle(POINT_MASS, QuerySpec((0, 1)))
    assert oracle.conditional_log_prob([1, 0]) == pytest.approx(0.0, abs=1e-12)


def test_single_bernoulli_conditional():
    oracle = make_oracle(BERN7, QuerySpec((0,)))
    assert oracle.conditional_log_prob([1]) == pytest.approx(math.log(0.7), abs=1e-12)


def test_mmap_conditional_matches_enumeration(small_circuits):
    c = small_circuits[(10, 4)]
    spec = QuerySpec((0, 2, 5), {1: 1, 6: 0}, (3, 4, 7, 8, 9))
    oracle = make_oracle(c, spec)
    for q_bits in [(0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 0)]:
        want = math.log(ref_conditional_prob(c, spec.query_vars, q_bits, spec.evidence))
        assert oracle.conditional_log_prob(q_bits) == pytest.approx(want, rel=1e-9)


@given(st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_mmap_consistency_random_specs(seed):
    c = generate_random_circuit(8, depth=2, fanout=2, seed=seed)
    spec = QuerySpec((0, 3), {5: 1}, (1, 2, 4, 6, 7))
    try:
        oracle = make_oracle(c, spec)
    except ZeroEvidenceError:
        return
    q = (1, 0)
    want = math.log(ref_conditional_prob(c, spec.query_vars, q, spec.evidence))
    assert oracle.conditional_log_prob(q) == pytest.approx(want, rel=1e-9)


# -- sampling -----------------------------------------------------------------


def test_point_mass_sampling_is_constant():
    oracle = make_oracle(POINT_MASS, QuerySpec((0, 1)))
    draws = oracle.sample(50, 9)
    assert np.array_equal(draws, np.tile([1, 0], (50, 1)))


def test_bernoulli_sampling_frequency():
    oracle = make_oracle(BERN7, QuerySpec((0,)))
    freq = oracle.sample(10**5, 3).mean()
    assert abs(freq - 0.7) <= 0.01


def test_sampler_matches_table_in_tv(small_circuits):
    c = small_circuits[(10, 5)]
    spec = QuerySpec(tuple(range(8)), {8: 1, 9: 0})
    oracle = make_oracle(c, spec)
    table = tabulate_conditional(oracle)
    draws = oracle.sample(10**6, 17)
    emp = np.bincount(pack_rows(draws).astype(np.int64), minlength=256) / 1e6
    assert total_variation(emp, np.exp(table.log_probs)) <= 0.01


def test_sampler_never_descends_into_zero_mass_child():
    # With x0 = 0 observed, the root's last child (node 9, x0 = 1) has zero
    # mass and keeps no descent table.  Its leaves have theta 1, so a draw
    # with x1 = 1 would come from that branch.
    text = (
        "spn v1\nvars 2\nleaf 0 indicator 0 0\nleaf 1 bernoulli 1 0\nprod 2 0 1\n"
        "leaf 3 indicator 0 1\nleaf 4 bernoulli 1 1\nprod 5 3 4\n"
        "leaf 6 indicator 0 1\nleaf 7 bernoulli 1 1\nprod 8 6 7\nsum 9 5:0.5 8:0.5\n"
        "sum 10 2:0.5 9:0.5\nroot 10\n"
    )
    oracle = make_oracle(parse_circuit(text), QuerySpec((1,), {0: 0}))
    assert oracle._sum_cums[9] is None
    # A float cumsum that ends below 1 leaves uniforms past its end.
    oracle._sum_cums[10] = oracle._sum_cums[10] * 0.5
    draws = oracle.sample(200, 3)
    assert not draws.any()


def test_seed_determinism_across_batch_sizes(small_circuits):
    c = small_circuits[(8, 3)]
    spec = QuerySpec(tuple(range(8)))
    oracle = make_oracle(c, spec)
    whole = oracle.sample(500, DrawStream(21))
    stream = DrawStream(21)
    parts = np.concatenate([oracle.sample(123, stream), oracle.sample(377, stream)])
    assert np.array_equal(whole, parts)


def test_sample_joint_has_model_support(small_circuits):
    c = small_circuits[(6, 1)]
    joint = sample_joint(c, 5, 2)
    assert joint.shape == (5, 6)
    assert set(np.unique(joint)) <= {0, 1}


def test_nuisance_projection_samples_only_query_vars(small_circuits):
    c = small_circuits[(8, 2)]
    spec = QuerySpec((2, 6), {0: 1}, tuple(v for v in range(8) if v not in (0, 2, 6)))
    oracle = make_oracle(c, spec)
    draws = oracle.sample(64, 5)
    assert draws.shape == (64, 2)


# -- tabular ground truth -----------------------------------------------------


def test_tabulate_single_bernoulli():
    oracle = make_oracle(BERN7, QuerySpec((0,)))
    table = tabulate_conditional(oracle)
    assert table.log_probs == pytest.approx([math.log(0.3), math.log(0.7)], abs=1e-12)


def test_tabulate_normalizes(small_circuits):
    c = small_circuits[(10, 4)]
    spec = QuerySpec(tuple(range(6)), {6: 0, 7: 1}, (8, 9))
    table = tabulate_conditional(make_oracle(c, spec))
    assert np.exp(np.logaddexp.reduce(table.log_probs)) == pytest.approx(1.0, abs=1e-6)


def test_tabulate_argmax_matches_brute_force(small_circuits):
    c = small_circuits[(10, 5)]
    spec = QuerySpec(tuple(range(10)))
    table = tabulate_conditional(make_oracle(c, spec))
    bits, logp = brute_force_map(table)
    idx = int(pack_rows(bits[None, :])[0])
    assert table.log_probs[idx] == logp
    assert logp == max(table.log_probs.tolist())


def test_brute_force_matches_independent_scan_n12():
    rng = np.random.default_rng(77)
    table = TabularDistribution.from_probs(rng.dirichlet(np.full(2**12, 0.2)))
    bits, logp = brute_force_map(table)
    # second, independent scan over the raw table
    best_idx, best = 0, -math.inf
    for i, lp in enumerate(table.log_probs.tolist()):
        if lp > best:
            best_idx, best = i, lp
    assert logp == best
    assert int(pack_rows(bits[None, :])[0]) == best_idx


def test_tabular_cap():
    with pytest.raises(ValueError, match="cap"):
        TabularDistribution(np.full(2**25, -25 * math.log(2)))


def test_brute_force_tie_breaks_to_smallest_pattern():
    table = TabularDistribution.from_probs(np.ones(8))
    bits, logp = brute_force_map(table)
    assert bits.tolist() == [0, 0, 0]
    assert logp == pytest.approx(math.log(1 / 8))


def test_tabular_lookup_rejects_marginal_entries():
    table = TabularDistribution.from_probs([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="0/1"):
        table.log_prob_rows([[-1, 1]])
    with pytest.raises(ValueError, match="0/1"):
        table.log_prob_rows([[0, 2]])


def test_oracle_refuses_entries_outside_0_1_marginal():
    oracle = make_oracle(BERN7, QuerySpec((0,)))
    for bad in ([[2]], [[5]], [[-2]]):
        with pytest.raises(ValueError, match="MARGINAL"):
            oracle.log_prob_rows(bad)
    assert oracle.log_prob_rows([[1], [0], [-1]]) == pytest.approx(np.log([0.7, 0.3, 1.0]))


def test_tabular_sampler_never_returns_zero_mass_atom():
    # Mass 0.9999995 lies within check_tol of 1, so uniforms past the cdf's
    # end exist; draw 1753591 of seed 0 is one.
    table = TabularDistribution(np.array([math.log(0.9999995), -np.inf]))
    stream = DrawStream(0, cursor=1753590)
    assert stream.uniform_block(3).max() >= table._cdf[-1]
    stream.rewind(3)
    assert not table.sample(3, stream).any()


def test_tabular_sampler_and_lookup():
    table = TabularDistribution.from_probs([0.5, 0.3, 0.15, 0.05])
    draws = table.sample(40_000, 5)
    emp = np.bincount(pack_rows(draws).astype(np.int64), minlength=4) / 40_000
    assert total_variation(emp, [0.5, 0.3, 0.15, 0.05]) < 0.02
    assert table.conditional_log_prob([0, 1]) == pytest.approx(math.log(0.3))


# -- summary statistics -------------------------------------------------------


def test_superlevel_point_mass():
    table = TabularDistribution.from_probs([0.0, 1.0])
    for eps in (0.01, 0.5, 0.99):
        assert superlevel_mass(table, eps) == pytest.approx(1.0)


def test_superlevel_uniform_is_one():
    table = TabularDistribution.from_probs(np.ones(16))
    assert superlevel_mass(table, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_superlevel_worked_example():
    table = TabularDistribution.from_probs([0.5, 0.3, 0.15, 0.05])
    assert superlevel_mass(table, 0.5) == pytest.approx(0.8, abs=1e-12)


def test_min_entropy_values():
    assert min_entropy(0.5) == pytest.approx(1.0)
    assert min_entropy(2.0**-10) == pytest.approx(10.0)
    assert min_entropy(0.104) == pytest.approx(3.265, abs=5e-4)
    with pytest.raises(ValueError):
        min_entropy(0.0)
    with pytest.raises(ValueError):
        min_entropy(1.5)
