import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pacmap
from pacmap.circuit import (
    BernoulliLeaf,
    Circuit,
    CircuitFormatError,
    CircuitStructureError,
    ProductNode,
    SumNode,
    WeightNormalizationWarning,
    bits_to_index,
    circuit_from_pmf,
    compute_scopes,
    enumerate_assignments,
    evaluate_complete,
    evaluate_marginal,
    generate_random_circuit,
    index_to_bits,
    pack_rows,
    parse_circuit,
    serialize_circuit,
    validate_structure,
)
from conftest import ref_marginal_prob

ONE_LEAF = "spn v1\nvars 1\nleaf 0 bernoulli 0 0.7\nroot 0\n"


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_file():
    c = parse_circuit(ONE_LEAF)
    assert len(c.nodes) == 1 and c.num_vars == 1
    assert c.scopes[c.root] == 0b1


def test_parse_normalizes_weights_with_warning():
    text = (
        "spn v1\nvars 1\n"
        "leaf 0 bernoulli 0 0.9\nleaf 1 bernoulli 0 0.1\n"
        "sum 2 0:3 1:1\nroot 2\n"
    )
    with pytest.warns(WeightNormalizationWarning):
        c = parse_circuit(text)
    assert c.nodes[2].weights == (0.75, 0.25)


def test_parse_forward_reference_error():
    text = "spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nsum 1 2:0.5 3:0.5\nroot 1\n"
    with pytest.raises(CircuitFormatError, match="forward reference"):
        parse_circuit(text)


@pytest.mark.parametrize(
    "text,match",
    [
        ("spn v2\n", "header"),
        ("spn v1\nleaf 0 bernoulli 0 0.5\n", "vars line must precede"),
        ("spn v1\nvars 0\nroot 0\n", "vars must be >= 1"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 1 0.5\nroot 0\n", "variable index 1 >= declared"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nsum 1 0:0\nroot 1\n", "strictly positive"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nsum 1\nroot 1\n", "at least one child"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\n", "root undeclared"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nroot 3\n", "undeclared node"),
        ("spn v1\nvars 1\nleaf 5 bernoulli 0 0.5\nroot 0\n", "out of order"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 1.5\nroot 0\n", "outside"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nroot 0\nvars 2\n", "after root"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 0 0.5\nsum 2 0:nan 1:1\nroot 2\n", "line 5: .*not finite"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 0 0.5\nsum 2 0:1 1:inf\nroot 2\n", "line 5: .*not finite"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(CircuitFormatError, match=match):
        parse_circuit(text)


def test_parse_error_reports_line_number():
    text = "spn v1\nvars 2\nleaf 0 bernoulli 0 0.5\nleaf 1 bogus 1 1\nroot 1\n"
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit(text)
    assert err.value.line == 4


# -- scopes and structure -----------------------------------------------------


def test_scope_single_leaf():
    assert compute_scopes([BernoulliLeaf(3, 0.5)]) == [0b1000]


def test_scope_product_union():
    nodes = [BernoulliLeaf(0, 0.5), BernoulliLeaf(1, 0.5), ProductNode((0, 1))]
    assert compute_scopes(nodes)[2] == 0b11


def test_generated_circuits_valid_over_100_seeds():
    for seed in range(100):
        c = generate_random_circuit(12, depth=3, fanout=2, seed=seed)
        assert c.scopes[c.root] == (1 << 12) - 1
        report = validate_structure(c)
        assert report.is_smooth and report.is_decomposable and not report.violations


def test_validate_structure_smooth_and_decomposable():
    nodes = [BernoulliLeaf(0, 0.2), BernoulliLeaf(0, 0.9), SumNode((0, 1), (0.5, 0.5))]
    report = validate_structure(Circuit(nodes, 2, 1))
    assert report.is_smooth and report.is_decomposable


def test_validate_structure_smoothness_violation():
    nodes = [BernoulliLeaf(0, 0.2), BernoulliLeaf(1, 0.9), SumNode((0, 1), (0.5, 0.5))]
    c = Circuit(nodes, 2, 2, validate=False)
    report = validate_structure(c)
    assert not report.is_smooth and report.is_decomposable
    assert report.violations[0][:2] == (2, "smoothness")
    with pytest.raises(CircuitStructureError):
        Circuit(nodes, 2, 2)


def test_validate_structure_decomposability_violation():
    nodes = [BernoulliLeaf(0, 0.2), BernoulliLeaf(0, 0.9), ProductNode((0, 1))]
    c = Circuit(nodes, 2, 1, validate=False)
    report = validate_structure(c)
    assert report.is_decomposable is False
    assert report.violations[0][:2] == (2, "decomposability")


# -- evaluation ---------------------------------------------------------------


def test_evaluate_bernoulli_leaf():
    c = parse_circuit(ONE_LEAF)
    assert evaluate_complete(c, [1]) == pytest.approx(math.log(0.7), abs=1e-12)
    assert evaluate_complete(c, [0]) == pytest.approx(math.log(0.3), abs=1e-12)


def test_evaluate_product_of_halves():
    text = (
        "spn v1\nvars 2\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 1 0.5\n"
        "prod 2 0 1\nroot 2\n"
    )
    c = parse_circuit(text)
    assert evaluate_complete(c, [1, 1]) == pytest.approx(math.log(0.25), abs=1e-12)


def test_evaluate_mixture():
    text = (
        "spn v1\nvars 1\nleaf 0 bernoulli 0 0.9\nleaf 1 bernoulli 0 0.2\n"
        "sum 2 0:0.6 1:0.4\nroot 2\n"
    )
    c = parse_circuit(text)
    assert evaluate_complete(c, [1]) == pytest.approx(math.log(0.62), abs=1e-12)
    # The max pass keeps the heavier weighted child; MARGINAL maximizes the leaves.
    best = c.max_forward(np.array([[1], [0], [-1]]))[c.root]
    assert np.exp(best) == pytest.approx([0.54, 0.32, 0.54], abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_degenerate_theta_evaluates_without_warnings():
    # theta 0 and 1 are legal; both mixture children are -inf at x0 = 1.
    text = (
        "spn v1\nvars 2\nleaf 0 bernoulli 0 0\nleaf 1 bernoulli 0 0.0\nsum 2 0:0.5 1:0.5\n"
        "leaf 3 bernoulli 1 1\nprod 4 2 3\nroot 4\n"
    )
    c = parse_circuit(text)
    assert evaluate_complete(c, [0, 1]) == 0.0
    assert evaluate_complete(c, [1, 1]) == -math.inf
    assert evaluate_complete(c, [0, 0]) == -math.inf
    assert evaluate_marginal(c, {}, [0, 1]) == 0.0
    assert c.max_forward(np.array([[1, -1]]))[c.root, 0] == -math.inf


def test_marginalize_everything_is_one(small_circuits):
    for c in small_circuits.values():
        assert evaluate_marginal(c, {}, range(c.num_vars)) == pytest.approx(0.0, abs=1e-9)


def test_marginal_matches_enumeration(small_circuits):
    c = small_circuits[(10, 4)]
    evidence = {0: 1, 3: 0, 7: 1}
    rest = [v for v in range(10) if v not in evidence]
    got = evaluate_marginal(c, evidence, rest)
    want = math.log(ref_marginal_prob(c, evidence))
    assert got == pytest.approx(want, rel=1e-9)


@given(st.integers(0, 10_000), st.integers(0, 255))
@settings(max_examples=30, deadline=None)
def test_complete_evaluation_matches_reference(seed, pattern):
    c = generate_random_circuit(8, depth=2, fanout=2, seed=seed)
    bits = index_to_bits(pattern, 8)
    from conftest import ref_complete_prob

    assert evaluate_complete(c, bits) == pytest.approx(math.log(ref_complete_prob(c, bits)), rel=1e-9)


def test_complete_equals_marginal_with_empty_marginal_set(small_circuits):
    c = small_circuits[(8, 2)]
    bits = index_to_bits(113, 8)
    assert evaluate_complete(c, bits) == evaluate_marginal(c, dict(enumerate(bits.tolist())), set())


def test_normalization_sums_to_one(small_circuits):
    c = small_circuits[(12, 6)]
    logs = c.log_root(enumerate_assignments(12))
    assert np.exp(np.logaddexp.reduce(logs)) == pytest.approx(1.0, abs=1e-6)


def test_marginal_errors():
    c = parse_circuit(ONE_LEAF)
    with pytest.raises(ValueError, match="both evidence and marginalized"):
        evaluate_marginal(c, {0: 1}, {0})
    with pytest.raises(ValueError, match="neither assigned"):
        evaluate_marginal(c, {}, set())
    with pytest.raises(ValueError, match="length"):
        evaluate_complete(c, [1, 0])


# -- serialization ------------------------------------------------------------


def test_round_trip_identity_small():
    c = parse_circuit(ONE_LEAF)
    assert parse_circuit(serialize_circuit(c)).nodes == c.nodes


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_round_trip_generated(seed):
    c = generate_random_circuit(16, depth=3, fanout=2, seed=seed)
    rt = parse_circuit(serialize_circuit(c))
    assert rt.num_vars == c.num_vars and rt.root == c.root
    assert len(rt.nodes) == len(c.nodes)
    for a, b in zip(rt.nodes, c.nodes):
        assert type(a) is type(b)
        if isinstance(a, SumNode):
            assert a.children == b.children
            assert np.allclose(a.weights, b.weights, atol=1e-12, rtol=0)
        else:
            assert a == b


def test_serialized_weights_sum_to_one():
    with pytest.warns(WeightNormalizationWarning):
        c = parse_circuit("spn v1\nvars 1\nleaf 0 bernoulli 0 0.9\nleaf 1 bernoulli 0 0.1\nsum 2 0:3 1:1\nroot 2\n")
    rt = parse_circuit(serialize_circuit(c))  # must not warn again
    for node in rt.nodes:
        if isinstance(node, SumNode):
            assert sum(node.weights) == pytest.approx(1.0, abs=1e-9)


# -- generators ---------------------------------------------------------------


def test_generate_single_variable_is_leaf():
    c = generate_random_circuit(1, depth=3, fanout=3, seed=0)
    assert len(c.nodes) == 1 and isinstance(c.nodes[0], BernoulliLeaf)


def test_generate_deterministic_in_seed():
    a = generate_random_circuit(16, depth=4, fanout=3, seed=7)
    b = generate_random_circuit(16, depth=4, fanout=3, seed=7)
    assert a.nodes == b.nodes and a.root == b.root


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_random_circuit(0, 1, 2, 0)
    with pytest.raises(ValueError):
        generate_random_circuit(4, 1, 1, 0)


def test_circuit_from_pmf_reproduces_table():
    probs = [0.4, 0.25, 0.0, 0.35]
    c = circuit_from_pmf(probs)
    for idx, p in enumerate(probs):
        got = evaluate_complete(c, index_to_bits(idx, 2))
        if p == 0.0:
            assert got == -np.inf
        else:
            assert got == pytest.approx(math.log(p), rel=1e-12)


def test_deterministic_circuit_is_valid():
    c = pacmap.generate_deterministic_circuit(6, seed=3)
    report = validate_structure(c)
    assert report.is_smooth and report.is_decomposable
    logs = c.log_root(enumerate_assignments(6))
    assert np.exp(np.logaddexp.reduce(logs)) == pytest.approx(1.0, abs=1e-9)


# -- packing ------------------------------------------------------------------


@given(st.integers(1, 20), st.integers(0, 2**20 - 1))
def test_bits_index_round_trip(n, idx):
    idx %= 2**n
    assert bits_to_index(index_to_bits(idx, n)) == idx


def test_pack_rows_matches_bits_to_index():
    rows = enumerate_assignments(6)
    keys = pack_rows(rows)
    assert keys.tolist() == list(range(64))


def test_pack_rows_wide_fallback():
    rows = np.zeros((3, 70), dtype=np.int8)
    rows[1, 0] = 1
    rows[2, 69] = 1
    keys = pack_rows(rows)
    assert len(set(keys.tolist())) == 3


# -- scaling ------------------------------------------------------------------


def _best_eval_time(circuit, x, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluate_complete(circuit, x)
        best = min(best, time.perf_counter() - t0)
    return best


def test_evaluation_time_scales_linearly():
    configs = [(64, 3), (256, 5), (1024, 7), (2048, 8)]
    sizes, times = [], []
    for n, depth in configs:
        c = generate_random_circuit(n, depth=depth, fanout=2, seed=11)
        x = np.zeros(n, dtype=np.int8)
        evaluate_complete(c, x)  # warm the compiled plan
        sizes.append(len(c.nodes))
        times.append(_best_eval_time(c, x))
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope <= 1.2, f"evaluation slope {slope:.2f} exceeds linear bound (sizes {sizes})"
