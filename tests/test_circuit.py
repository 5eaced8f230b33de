import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pacmap
from pacmap.circuit import (
    MARGINAL,
    BernoulliLeaf,
    Circuit,
    CircuitFormatError,
    CircuitStructureError,
    IndicatorLeaf,
    ProductNode,
    SumNode,
    WeightNormalizationWarning,
    bits_to_index,
    circuit_from_pmf,
    enumerate_assignments,
    evaluate_complete,
    evaluate_marginal,
    generate_deterministic_circuit,
    generate_random_circuit,
    index_to_bits,
    pack_rows,
    parse_circuit,
    serialize_circuit,
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
    with pytest.raises(CircuitStructureError, match="line 4: node 1 has a non-topological child reference to node 2"):
        parse_circuit(text)


# Rows of test_parse_errors that break a node rule, which Circuit checks.
_NODE_RULE_ERRORS = [
    ("spn v1\nvars 1\nleaf 0 bernoulli 0 1.5\nroot 0\n", "outside"),
    ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 0 0.5\nsum 2 0:nan 1:1\nroot 2\n", "line 5: .*not positive and finite"),
    ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 0 0.5\nsum 2 0:1 1:inf\nroot 2\n", "line 5: .*not positive and finite"),
]


@pytest.mark.parametrize(
    "text,match",
    [
        ("spn v2\n", "header"),
        ("spn v1\nleaf 0 bernoulli 0 0.5\n", "vars line must precede"),
        ("spn v1\nvars 0\nroot 0\n", "vars must be >= 1"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nsum 1\nroot 1\n", "at least one child"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\n", "root undeclared"),
        ("spn v1\nvars 1\nleaf 5 bernoulli 0 0.5\nroot 0\n", "out of order"),
        ("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nroot 0\nvars 2\n", "after root"),
    ]
    + _NODE_RULE_ERRORS,
)
def test_parse_errors(text, match):
    error = CircuitStructureError if (text, match) in _NODE_RULE_ERRORS else CircuitFormatError
    with pytest.raises(error, match=match):
        parse_circuit(text)


_HEAD = "spn v1\nvars 1\n"
_LEAF = _HEAD + "leaf 0 bernoulli 0 0.5\n"


@pytest.mark.parametrize(
    "text,line,match",
    [
        (_HEAD + "vars 2\n", 3, "duplicate vars line"),
        ("spn v1\nvars 1 2\n", 2, "vars line takes one integer"),
        ("spn v1\nvars x\n", 2, "bad variable count 'x'"),
        (_LEAF + "root\n", 4, "root line takes one node id"),
        (_LEAF + "root 0 0\n", 4, "root line takes one node id"),
        (_LEAF + "node 1 0\n", 4, "unknown directive 'node'"),
        (_LEAF + "prod\n", 4, "prod line missing node id"),
        (_HEAD + "leaf 0 bernoulli 0\n", 3, "leaf line takes"),
        (_HEAD + "leaf 0 bernoulli 0 x\n", 3, "bad theta 'x'"),
        (_HEAD + "leaf 0 indicator 0 x\n", 3, "bad indicator value 'x'"),
        (_LEAF + "leaf 1 bernoulli 0 0.5\nsum 2 0:x 1:1\n", 5, "bad weight 'x'"),
        (_LEAF + "sum 1 0\n", 4, "sum child '0' must be <child>:<weight>"),
        (_LEAF + "sum 1 x:1\n", 4, "bad child id 'x'"),
        (_LEAF + "prod 1\n", 4, "product node needs at least one child"),
        (_HEAD + "leaf -1 bernoulli 0 0.5\n", 3, "node id must be non-negative"),
        (_HEAD + "leaf 0.0 bernoulli 0 0.5\n", 3, "bad node id '0.0'"),
        (_HEAD + "leaf 0 bernoulli -1 0.5\n", 3, "variable index must be non-negative"),
        (_LEAF + "root -1\n", 4, "root id must be non-negative"),
        ("", None, "empty input"),
        ("# only a comment\n", None, "empty input"),
        ("spn v1\n", None, "missing vars line"),
        # The whole file is read before Circuit checks a node: the format
        # error on line 4 comes before the theta on line 3.
        (_HEAD + "leaf 0 bernoulli 0 1.5\nleaf 2 bernoulli 0 0.5\n", 4, "node id 2 out of order (expected 1)"),
    ],
)
def test_parse_refusals_carry_the_line(text, line, match):
    with pytest.raises(CircuitFormatError, match=re.escape(match)) as err:
        parse_circuit(text)
    assert err.value.line == line


_TWO = [BernoulliLeaf(0, 0.2), BernoulliLeaf(0, 0.9)]  # two leaves of x0


@pytest.mark.parametrize(
    "nodes,root,num_vars,match",
    [
        ([], 0, 1, "circuit has no nodes"),
        ([BernoulliLeaf(0, 0.5)], 1, 1, "root id 1 out of range"),
        ([BernoulliLeaf(0, 0.5)], 0, 0, "num_vars must be >= 1"),
        ([BernoulliLeaf(0, 0.5), ProductNode(())], 1, 1, "node 1 has no children"),
        ([BernoulliLeaf(0, 0.5), ProductNode((1,))], 1, 1, "node 1 has a non-topological child reference"),
        ([BernoulliLeaf(3, 0.5)], 0, 2, "node 0 references variable 3 >= 2"),
        (
            [BernoulliLeaf(0, 0.5), BernoulliLeaf(1, 0.5), SumNode((0, 1), (0.5, 0.5))],
            2,
            2,
            "node 2: smoothness violation",
        ),
        ([BernoulliLeaf(0, 0.5), BernoulliLeaf(0, 0.5), ProductNode((0, 1))], 2, 1, "node 2: decomposability"),
        ([BernoulliLeaf(0, 0.5)], 0, 2, "root scope does not cover"),
        # Leaf 2 holds x1, but no path from the root reaches it.
        (
            [BernoulliLeaf(0, 0.3), BernoulliLeaf(0, 0.6), BernoulliLeaf(1, 0.9), SumNode((0, 1), (0.5, 0.5))],
            3,
            2,
            "node 3: scope violation (root scope does not cover all declared variables)",
        ),
        ([BernoulliLeaf(0, 1.5)], 0, 1, "node 0 has theta 1.5 outside [0, 1]"),
        ([BernoulliLeaf(0, -0.1)], 0, 1, "node 0 has theta -0.1 outside [0, 1]"),
        ([BernoulliLeaf(0, math.nan)], 0, 1, "node 0 has theta nan outside [0, 1]"),
        ([IndicatorLeaf(0, 2)], 0, 1, "node 0 has indicator value 2, not 0 or 1"),
        ([IndicatorLeaf(0, "1")], 0, 1, "node 0 has indicator value '1', not 0 or 1"),
        (_TWO + [SumNode((0, 1), (0.5,))], 2, 1, "node 2 has 1 weights for its children"),
        (_TWO + [SumNode((0, 1), (0.5, 0.5, 0.0))], 2, 1, "node 2 has 3 weights for its children"),
        (_TWO + [SumNode((0, 1), (0.5, -0.5))], 2, 1, "node 2 has a weight that is not positive and finite"),
        (_TWO + [SumNode((0, 1), (1.0, 0.0))], 2, 1, "node 2 has a weight that is not positive and finite"),
        (_TWO + [SumNode((0, 1), (0.5, math.nan))], 2, 1, "node 2 has a weight that is not positive and finite"),
        (_TWO + [SumNode((0, 1), (0.5, math.inf))], 2, 1, "node 2 has a weight that is not positive and finite"),
        (_TWO + [SumNode((0, 1), (0.9, 0.9))], 2, 1, "node 2 weights sum to 1.8, not 1"),
        ([IndicatorLeaf(2.0, 1)], 0, 3, "node 0 has variable index 2.0, not an integer"),
        ([BernoulliLeaf("1", 0.5)], 0, 2, "node 0 has variable index '1', not an integer"),
        (_TWO + [SumNode((0, 1), (0.5, 0.5))], 2.7, 1, "circuit has root id 2.7, not an integer"),
        (_TWO + [SumNode((0, 1), (0.5, 0.5))], 2, 1.5, "circuit has num_vars 1.5, not an integer"),
        (_TWO + [SumNode((0, 1.0), (0.5, 0.5))], 2, 1, "node 2 has child id 1.0, not an integer"),
        (_TWO + [SumNode((0, 1), (0.5, "0.5"))], 2, 1, "node 2 has weight '0.5', not a number"),
        ([BernoulliLeaf(0, "0.5")], 0, 1, "node 0 has theta '0.5', not a number"),
        # A node rule on a later node is raised before node 2's smoothness violation.
        (
            [BernoulliLeaf(0, 0.5), BernoulliLeaf(1, 0.5), SumNode((0, 1), (0.5, 0.5)), BernoulliLeaf(0, 1.5)],
            2,
            2,
            "node 3 has theta 1.5 outside [0, 1]",
        ),
    ],
)
def test_circuit_constructor_refusals(nodes, root, num_vars, match):
    with pytest.raises(CircuitStructureError, match=re.escape(match)) as err:
        Circuit(nodes, root, num_vars)
    # A node rule's refusal carries its node; a rule on the root id or num_vars carries none.
    if re.match(r"(node \d+|circuit) has ", match):
        assert err.value.node == (None if match.startswith("circuit") else int(match.split()[1]))


def test_parse_error_reports_line_number():
    text = "spn v1\nvars 2\nleaf 0 bernoulli 0 0.5\nleaf 1 bogus 1 1\nroot 1\n"
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit(text)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text,line,violations",
    [
        (
            "spn v1\nvars 2\nleaf 0 bernoulli 0 0.4\nleaf 1 bernoulli 1 0.6\nsum 2 0:0.5 1:0.5\nroot 2\n",
            5,
            [(2, "smoothness")],
        ),
        (
            "spn v1\nvars 1\nleaf 0 bernoulli 0 0.4\n# a comment\n\nleaf 1 bernoulli 0 0.6\nprod 2 0 1\nroot 2\n",
            7,
            [(2, "decomposability")],
        ),
        # The root line names a root that misses x1, and an earlier node also
        # breaks smoothness: the first violation's node gives the line.
        (
            "spn v1\nvars 2\nleaf 0 bernoulli 0 0.3\nleaf 1 bernoulli 1 0.6\nsum 2 0:0.5 1:0.5\n\nroot 0\n",
            5,
            [(2, "smoothness"), (0, "scope")],
        ),
        ("spn v1\nvars 2\nleaf 0 bernoulli 0 0.3\n\nroot 0  # x1 is never reached\n", 5, [(0, "scope")]),
        # All three rules broken: every violation in node order, the root's last.
        (
            "spn v1\nvars 3\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 0 0.5\nprod 2 0 1\n"
            "leaf 3 bernoulli 1 0.5\nsum 4 0:0.5 3:0.5\nroot 4\n",
            5,
            [(2, "decomposability"), (4, "smoothness"), (4, "scope")],
        ),
        (
            "spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 0 0.5\nleaf 2 bernoulli 0 0.5\n"
            "prod 3 0 1 2\nroot 3\n",
            6,
            [(3, "decomposability")],
        ),
    ],
)
def test_parse_structure_violations_carry_the_line(text, line, violations):
    with pytest.raises(CircuitStructureError) as err:
        parse_circuit(text)
    nid, prop = violations[0]
    assert err.value.line == line
    assert err.value.node == (None if prop == "scope" else nid)
    assert str(err.value).startswith(f"line {line}: node {nid}: {prop} violation (")
    assert [v[:2] for v in err.value.report.violations] == violations


_SUM2 = _LEAF + "leaf 1 bernoulli 0 0.5\nsum 2 "  # a sum on line 5 over two leaves of x0


@pytest.mark.parametrize(
    "text,line,node,message",
    [
        (_HEAD + "leaf 0 bernoulli 1 0.5\nroot 0\n", 3, 0, "node 0 references variable 1 >= 1"),
        (_HEAD + "leaf 0 bernoulli 0 nan\nroot 0\n", 3, 0, "node 0 has theta nan outside [0, 1]"),
        (_HEAD + "leaf 0 indicator 0 2\nroot 0\n", 3, 0, "node 0 has indicator value 2, not 0 or 1"),
        (_SUM2 + "0:0.5 2:0.5\nroot 2\n", 5, 2, "node 2 has a non-topological child reference to node 2"),
        (_LEAF + "prod 1 0 2\nroot 1\n", 4, 1, "node 1 has a non-topological child reference to node 2"),
        (_LEAF + "root 3\n", 4, None, "root id 3 out of range"),
        ("spn v1\nvars 1\n\nroot 0\n", 4, None, "circuit has no nodes"),
        (_LEAF + "sum 1 0:0\nroot 1\n", 4, 1, "node 1 has a weight that is not positive and finite (0.0)"),
        (_SUM2 + "0:1 1:nan\nroot 2\n", 5, 2, "node 2 has a weight that is not positive and finite (nan)"),
        (_SUM2 + "0:inf 1:1\nroot 2\n", 5, 2, "node 2 has a weight that is not positive and finite (inf)"),
        (_SUM2 + "0:-1 1:2\nroot 2\n", 5, 2, "node 2 has a weight that is not positive and finite (-1.0)"),
        # Each weight is finite, but their sum is not: no normalization, no warning.
        (_SUM2 + "0:1e308 1:1e308\nroot 2\n", 5, 2, "node 2 weights sum to inf, not 1"),
        # Sum 2 breaks smoothness, but leaf 3's node rule is raised.
        (
            "spn v1\nvars 2\nleaf 0 bernoulli 0 0.5\nleaf 1 bernoulli 1 0.5\nsum 2 0:0.5 1:0.5\n"
            "leaf 3 bernoulli 0 1.5\nroot 2\n",
            6,
            3,
            "node 3 has theta 1.5 outside [0, 1]",
        ),
    ],
)
def test_parse_node_refusals(text, line, node, message):
    with pytest.raises(CircuitStructureError) as err:
        parse_circuit(text)  # a normalization warning would fail the suite
    assert (err.value.line, err.value.node, str(err.value)) == (line, node, f"line {line}: {message}")
    assert err.value.report is None


# -- scopes and structure -----------------------------------------------------


def _structure_holds(c):
    """Every sum's children share its scope, every product's children are
    disjoint and the root covers every variable, read from c.scopes."""
    for node, scope in zip(c.nodes, c.scopes):
        kids = [c.scopes[ch] for ch in getattr(node, "children", ())]
        if isinstance(node, SumNode) and any(kid != scope for kid in kids):
            return False
        if isinstance(node, ProductNode) and sum(bin(kid).count("1") for kid in kids) != bin(scope).count("1"):
            return False
    return c.scopes[c.root] == (1 << c.num_vars) - 1


def test_scope_single_leaf():
    leaves = [BernoulliLeaf(v, 0.5) for v in range(4)]
    c = Circuit(leaves + [ProductNode((0, 1, 2, 3))], 4, 4)
    assert c.scopes == (0b1, 0b10, 0b100, 0b1000, 0b1111)


def test_scope_product_union():
    nodes = [BernoulliLeaf(0, 0.5), BernoulliLeaf(1, 0.5), ProductNode((0, 1))]
    assert Circuit(nodes, 2, 2).scopes[2] == 0b11


def test_generated_circuits_valid_over_100_seeds():
    for seed in range(100):
        c = generate_random_circuit(12, depth=3, fanout=2, seed=seed)  # Circuit refuses any violation
        assert c.scopes[c.root] == (1 << 12) - 1
        assert _structure_holds(c)


def test_validate_structure_smooth_and_decomposable():
    nodes = [BernoulliLeaf(0, 0.2), BernoulliLeaf(0, 0.9), SumNode((0, 1), (0.5, 0.5))]
    assert _structure_holds(Circuit(nodes, 2, 1))


def test_validate_structure_smoothness_violation():
    nodes = [BernoulliLeaf(0, 0.2), BernoulliLeaf(1, 0.9), SumNode((0, 1), (0.5, 0.5))]
    with pytest.raises(CircuitStructureError) as err:
        Circuit(nodes, 2, 2)
    report = err.value.report
    assert not report.is_smooth and report.is_decomposable
    assert report.violations[0][:2] == (2, "smoothness")


def test_validate_structure_decomposability_violation():
    nodes = [BernoulliLeaf(0, 0.2), BernoulliLeaf(0, 0.9), ProductNode((0, 1))]
    with pytest.raises(CircuitStructureError) as err:
        Circuit(nodes, 2, 1)
    report = err.value.report
    assert report.is_decomposable is False
    assert report.violations[0][:2] == (2, "decomposability")


@pytest.mark.parametrize(
    "nodes,root,num_vars,violations",
    [
        # Node 2 breaks decomposability and node 4 smoothness, and root 4 misses x2.
        (
            _TWO + [ProductNode((0, 1)), BernoulliLeaf(1, 0.5), SumNode((0, 3), (0.5, 0.5))],
            4,
            3,
            ((2, "decomposability"), (4, "smoothness"), (4, "scope")),
        ),
        # Three pairwise-overlapping children break decomposability once.
        (_TWO + [BernoulliLeaf(0, 0.5), ProductNode((0, 1, 2))], 3, 1, ((3, "decomposability"),)),
    ],
)
def test_a_report_lists_every_violation_in_node_order(nodes, root, num_vars, violations):
    with pytest.raises(CircuitStructureError) as err:
        Circuit(nodes, root, num_vars)
    report = err.value.report
    rules = [rule for _, rule, _ in report.violations]
    assert (report.is_smooth, report.is_decomposable) == ("smoothness" not in rules, "decomposability" not in rules)
    assert tuple((nid, rule) for nid, rule, _ in report.violations) == violations
    assert err.value.node == violations[0][0]


def _plan_bytes(c):
    """The full plan's fields and ops as bytes, with the scopes and leaf tables."""
    plan = c._plan
    arrays = [plan.live, plan.leaf_cols, plan.leaf_base, plan.leaf_table, plan.consts, c._max_table, c._leaf_theta]
    arrays += [a for op in plan.ops for a in (op.ids, op.kids, op.logw) if a is not None]
    return (plan.width, plan.root, c.scopes, [(a.dtype, a.shape, a.tobytes()) for a in arrays])


@pytest.mark.parametrize("n,numpy_vars", [(64, range(64)), (65, [64]), (65, [3])], ids=["64-all", "65-last", "65-one"])
def test_numpy_integer_leaf_variables_build_the_python_int_plan(n, numpy_vars):
    def leaves(as_numpy):
        return [BernoulliLeaf(np.int64(v) if as_numpy and v in numpy_vars else v, 0.5 + v / 200) for v in range(n)]

    c = Circuit(leaves(True) + [ProductNode(tuple(range(n)))], n, n)
    assert c.scopes[n] == (1 << n) - 1 and all(type(scope) is int for scope in c.scopes)
    assert _plan_bytes(c) == _plan_bytes(Circuit(leaves(False) + [ProductNode(tuple(range(n)))], n, n))


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


@pytest.mark.parametrize("maximize", [False, True], ids=["sum", "max"])
def test_leaf_values_are_log0_log1_or_the_marginal_entry(maximize):
    # Bernoulli leaves (some at theta 0 or 1) and indicators under one product.
    rng = np.random.default_rng(11)
    k = 40
    theta = rng.uniform(0.01, 0.99, size=k)
    theta[::5] = rng.choice([0.0, 1.0], size=len(theta[::5]))
    leaves = [IndicatorLeaf(v, v % 2) if v % 3 == 0 else BernoulliLeaf(v, float(theta[v])) for v in range(k)]
    c = Circuit(leaves + [ProductNode(tuple(range(k)))], k, k)
    rows = rng.choice(np.array([0, 1, MARGINAL], dtype=np.int8), size=(300, k))
    values = (c.max_forward if maximize else c.log_forward)(rows)
    with np.errstate(divide="ignore"):
        for v, leaf in enumerate(leaves):
            if isinstance(leaf, IndicatorLeaf):
                log1, log0 = np.log(float(leaf.value)), np.log(1.0 - leaf.value)
            else:
                log1, log0 = np.log(leaf.theta), np.log1p(-leaf.theta)
            marginal = max(log0, log1) if maximize else 0.0
            want = np.where(rows[:, v] == MARGINAL, marginal, np.where(rows[:, v] == 1, log1, log0))
            assert values[v].tobytes() == want.tobytes(), v


def test_evaluators_refuse_entries_outside_0_1_marginal():
    c = parse_circuit(ONE_LEAF)
    for bad in ([[2]], [[-2]], [[3]], [[255]]):
        for evaluate in (c.log_forward, c.max_forward, c.log_root):
            with pytest.raises(ValueError, match="MARGINAL"):
                evaluate(np.array(bad))


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 16, 17, 130, 200])
def test_products_add_children_in_reduceat_order(k):
    # Random terms show the order of the additions; the leading theta-0
    # leaves at x = 0 (-0.0) and MARGINAL entries (+0.0) show signed zeros.
    rng = np.random.default_rng(k)
    theta = rng.uniform(0.01, 0.99, size=k)
    theta[:2] = 0.0
    c = Circuit([BernoulliLeaf(v, float(t)) for v, t in enumerate(theta)] + [ProductNode(tuple(range(k)))], k, k)
    rows = rng.choice(np.array([0, 1, -1], dtype=np.int8), size=(500, k))
    rows[:, :2] = rng.choice(np.array([0, -1], dtype=np.int8), size=(500, min(k, 2)))
    rows[:100, 2:] = -1
    values = c.log_forward(rows)
    want = np.add.reduceat(values[:k], [0], axis=0)[0]
    assert values[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 9, 17, 130])
def test_sums_match_segmented_log_sum_exp(k):
    # A mixture of k leaves of one variable, some with theta 0 or 1, so that
    # rows with every child at -inf occur.
    rng = np.random.default_rng(k)
    theta = rng.uniform(0.01, 0.99, size=k)
    theta[: (k + 1) // 2] = rng.choice([0.0, 1.0], size=(k + 1) // 2)
    weights = rng.dirichlet(np.ones(k))
    nodes = [BernoulliLeaf(0, float(t)) for t in theta] + [SumNode(tuple(range(k)), tuple(weights.tolist()))]
    c = Circuit(nodes, k, 1)
    rows = np.array([[0], [1], [-1]] * 10, dtype=np.int8)
    best = c.max_forward(rows)
    want = np.maximum.reduceat(best[:k] + np.log(weights)[:, None], [0], axis=0)[0]
    assert best[k].tobytes() == want.tobytes()
    values = c.log_forward(rows)
    terms = values[:k] + np.log(weights)[:, None]
    mx = np.maximum(np.maximum.reduceat(terms, [0], axis=0), np.finfo(np.float64).min)
    with np.errstate(divide="ignore"):
        want = (mx + np.log(np.add.reduceat(np.exp(terms - mx), [0], axis=0)))[0]
    assert values[k].tobytes() == want.tobytes()


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
    # Weights that sum to 1 within 1e-6 are kept as written, so every node
    # comes back bit for bit.
    pmf = np.random.default_rng(seed).dirichlet(np.full(16, 0.5))
    for c in (
        generate_random_circuit(16, depth=3, fanout=2, seed=seed),
        pacmap.generate_deterministic_circuit(5, seed),
        circuit_from_pmf(pmf),
    ):
        rt = parse_circuit(serialize_circuit(c))
        assert (rt.nodes, rt.root, rt.num_vars) == (c.nodes, c.root, c.num_vars)


@pytest.mark.parametrize("real", [np.float64, np.float32])
def test_round_trip_numpy_scalars_and_bool_indicator(real):
    # Circuit accepts numpy scalars for numbers and True for an indicator
    # value; each is written in a form the parser reads back.
    i = np.int64
    nodes = [
        BernoulliLeaf(i(0), real(0.3)),
        BernoulliLeaf(i(0), real(0.8)),
        IndicatorLeaf(1, True),
        IndicatorLeaf(i(1), np.int8(0)),
        SumNode((i(0), i(1)), (real(0.25), real(0.75))),
        SumNode((2, 3), (real(0.5), real(0.5))),
        ProductNode((i(4), np.int32(5))),
    ]
    c = Circuit(nodes, 6, 2)
    text = serialize_circuit(c)
    rt = parse_circuit(text)
    assert serialize_circuit(rt) == text
    rows = enumerate_assignments(2)
    assert rt.log_root(rows).tobytes() == c.log_root(rows).tobytes()


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


@pytest.mark.parametrize("probs", [[np.nan, 0.5, 0.25, 0.25], [np.inf, 0.5, 0.25, 0.25], [0.5, 0.5, -0.25, 0.25]])
def test_circuit_from_pmf_refuses_non_finite_or_negative_mass(probs):
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        circuit_from_pmf(probs)


def test_deterministic_circuit_is_valid():
    c = pacmap.generate_deterministic_circuit(6, seed=3)
    assert _structure_holds(c)
    logs = c.log_root(enumerate_assignments(6))
    assert np.exp(np.logaddexp.reduce(logs)) == pytest.approx(1.0, abs=1e-9)


# -- packing ------------------------------------------------------------------


@given(st.integers(1, 20), st.integers(0, 2**20 - 1))
def test_bits_index_round_trip(n, idx):
    idx %= 2**n
    assert bits_to_index(index_to_bits(idx, n)) == idx


def test_index_to_bits_decodes_arrays_row_by_row():
    idx = np.array([0, 5, 113, 255])
    assert np.array_equal(index_to_bits(idx, 8), np.stack([index_to_bits(int(i), 8) for i in idx]))
    assert index_to_bits(idx, 8).dtype == np.int8 and index_to_bits(7, 3).tolist() == [1, 1, 1]


def test_pack_rows_matches_bits_to_index():
    rows = enumerate_assignments(6)
    keys = pack_rows(rows)
    assert keys.tolist() == list(range(64))


def _packbits_keys(rows):
    """pack_rows's byte route at every width: rows packed 8 bits to a byte,
    read as a big-endian word up to 64 columns, as raw bytes past it."""
    packed = np.packbits(rows, axis=1)
    if rows.shape[1] > 64:
        return [bytes(row) for row in packed]
    return [int.from_bytes(bytes(row), "big") >> (8 * packed.shape[1] - rows.shape[1]) for row in packed]


def _pack_inputs(n):
    """The same 0/1 rows as int8, as bool, as a transposed (non-C-contiguous)
    view, and with each 1 replaced by a nonzero entry other than 1."""
    rows = np.random.default_rng(n).integers(0, 2, size=(300, n)).astype(np.int8)
    rows[0], rows[1] = 0, 1
    odd = rows * np.random.default_rng(n + 1).choice(np.array([1, 2, -1, 7, -128], dtype=np.int8), size=rows.shape)
    return rows, {"int8": rows, "bool": rows.astype(bool), "transposed": rows.T.copy().T, "nonzero": odd}


@pytest.mark.parametrize("n", [1, 7, 8, 9, 20, 23, 24, 25, 32, 33, 63, 64])
def test_pack_rows_keys_are_bits_to_index_at_every_width(n):
    # Up to 24 columns keys are a weighted sum, past it packed bytes; both
    # give bits_to_index and the byte route's keys, whatever the input.
    rows, inputs = _pack_inputs(n)
    want = [bits_to_index(r) for r in rows]
    assert _packbits_keys(rows) == want
    for kind, given in inputs.items():
        keys = pack_rows(given)
        assert keys.dtype == np.uint64, kind
        assert keys.tolist() == want, kind
        assert _packbits_keys(given) == want, kind


@pytest.mark.parametrize("n", [65, 128])
def test_pack_rows_byte_keys_are_unchanged_past_64_columns(n):
    rows, inputs = _pack_inputs(n)
    want = _packbits_keys(rows)
    for kind, given in inputs.items():
        assert pack_rows(given).tolist() == want, kind


def test_pack_rows_memory_is_linear_in_rows():
    # 10^6 rows of 20 bits: the keys take 8 MB; widening every bit to uint64
    # took about 320 MB.
    rows = np.random.default_rng(0).integers(0, 2, size=(10**6, 20)).astype(np.int8)
    tracemalloc.start()
    try:
        keys = pack_rows(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(rows), peak
    assert keys[:5].tolist() == [bits_to_index(r) for r in rows[:5]]


def test_pack_rows_wide_fallback():
    rows = np.zeros((3, 70), dtype=np.int8)
    rows[1, 0] = 1
    rows[2, 69] = 1
    keys = pack_rows(rows)
    assert len(set(keys.tolist())) == 3


def test_pack_rows_ignores_the_layout_of_its_rows():
    # Column-major rows, and transposed views, give the keys of C-ordered ones.
    for n in range(1, 71):
        rows = np.random.default_rng(n).integers(0, 2, size=(40, n)).astype(np.int8)
        keys = pack_rows(rows).tolist()
        assert pack_rows(np.asfortranarray(rows)).tolist() == keys, n
        assert pack_rows(rows.T.copy().T).tolist() == keys, n


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


# -- refusals -----------------------------------------------------------------

_PMF2 = circuit_from_pmf([0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(
            lambda: _PMF2.log_root(np.zeros((1, 3), np.int8)), "assignment rows have 3 variables, expected 2", id="root-width"
        ),
        pytest.param(lambda: evaluate_complete(_PMF2, [0, 2]), "complete assignment must be 0/1 valued", id="complete-2"),
        pytest.param(
            lambda: evaluate_marginal(_PMF2, {0: 1}, ()), "variables [1] neither assigned nor marginalized", id="unassigned"
        ),
        pytest.param(lambda: evaluate_marginal(_PMF2, {0: 1, 5: 0}, (1,)), "variable index out of range", id="var-range"),
        pytest.param(
            lambda: evaluate_marginal(_PMF2, {0.0: 1}, (1,)), "evidence variable must be an integer, not 0.0", id="var-float"
        ),
        pytest.param(
            lambda: evaluate_marginal(_PMF2, {0: 1}, ["1"]), "marginalized variable must be an integer, not '1'", id="marg-str"
        ),
        pytest.param(lambda: generate_deterministic_circuit(0, 0), "need n >= 1", id="deterministic-0"),
        pytest.param(
            lambda: generate_deterministic_circuit(17, 0),
            "deterministic construction is exponential; n > 16 refused",
            id="deterministic-17",
        ),
        pytest.param(lambda: circuit_from_pmf([0.5, 0.25, 0.25]), "pmf length must be a power of two", id="pmf-3"),
        pytest.param(lambda: circuit_from_pmf([]), "pmf length must be a power of two", id="pmf-empty"),
        pytest.param(lambda: enumerate_assignments(25), "refusing to enumerate more than 2^24 assignments", id="enumerate-25"),
    ],
)
def test_circuit_refusals(call, match):
    with pytest.raises(ValueError, match=re.escape(match)) as err:
        call()
    assert type(err.value) is ValueError
