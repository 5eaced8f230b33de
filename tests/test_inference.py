import gc
import hashlib
import math
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pacmap.circuit as circuit_module
import pacmap.inference as inference_module
import pacmap.rng as rng_module
from pacmap.baselines import arg_max_product, independent_map, max_product
from pacmap.circuit import (
    MARGINAL,
    BernoulliLeaf,
    Circuit,
    CircuitStructureError,
    IndicatorLeaf,
    ProductNode,
    SumNode,
    circuit_from_pmf,
    enumerate_assignments,
    evaluate_complete,
    generate_deterministic_circuit,
    generate_random_circuit,
    pack_rows,
    parse_circuit,
)
from pacmap.bench import draw_evidence, random_query_partition
from pacmap.inference import (
    ConditionalOracle,
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
from pacmap.rng import DrawStream, counter_uniforms, mix53, unit_thresholds
from pacmap.solvers import hamming_ball
from conftest import ref_conditional_prob, ref_marginal_prob, total_variation

BERN7 = parse_circuit("spn v1\nvars 1\nleaf 0 bernoulli 0 0.7\nroot 0\n")
POINT_MASS = circuit_from_pmf([0.0, 0.0, 1.0, 0.0])  # mode at bits 10
HALF_QUERY = QuerySpec(tuple(range(0, 64, 2)), {}, tuple(range(1, 64, 2)))  # share 0.5 of n = 64


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


@pytest.mark.parametrize(
    "text,match",
    [
        ("Q 0\nQ\n", "line 2: expected 'Q|E|V <var> ...'"),
        ("Q x\n", "line 1: expected"),
        ("Q 0\n# comment\nE 2 1\n", "line 3: variable 2 out of range"),
        ("V -1\n", "line 1: variable -1 out of range"),
    ],
)
def test_parse_query_spec_refusals_name_the_line(text, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        parse_query_spec(text, 2)


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


# -- query-folded plan ---------------------------------------------------------


def _degenerate_theta_circuit() -> Circuit:
    """generate_random_circuit(12, ...) with the leaves of even variables at theta 0 or 1."""
    c = generate_random_circuit(12, depth=3, fanout=2, seed=8)
    nodes = [
        BernoulliLeaf(nd.var, float(nd.var % 4 == 0)) if isinstance(nd, BernoulliLeaf) and nd.var % 2 == 0 else nd
        for nd in c.nodes
    ]
    return Circuit(nodes, c.root, c.num_vars)


_PMF = np.random.default_rng(5).dirichlet(np.full(64, 0.3))
_PMF[_PMF < np.quantile(_PMF, 0.4)] = 0.0

_N16 = generate_random_circuit(16, 3, 2, 101)
FOLD_CASES = {
    "evidence+nuisance": (
        generate_random_circuit(32, 3, 2, 202),
        QuerySpec(
            (1, 4, 9, 17, 30),
            {0: 1, 2: 0, 3: 1, 8: 0, 20: 1, 31: 0},
            tuple(sorted(set(range(32)) - {0, 1, 2, 3, 4, 8, 9, 17, 20, 30, 31})),
        ),
    ),
    # Evidence x0 = 1, x1 = 0 sends the indicators of x0 = 0 and x1 = 1 to
    # -inf, and they are dead children of live products.
    "deterministic": (generate_deterministic_circuit(6, seed=2), QuerySpec((2, 3, 5), {0: 1, 1: 0}, (4,))),
    # One product per atom with six indicator children in variable order.
    "pmf": (circuit_from_pmf(_PMF / _PMF.sum()), QuerySpec((1, 4, 5), {0: 1}, (2, 3))),
    "theta 0/1": (_degenerate_theta_circuit(), QuerySpec((0, 2, 3, 6, 9), {1: 0, 5: 1}, (4, 7, 8, 10, 11))),
    "one query variable": (_N16, QuerySpec((7,), {0: 1, 1: 1}, (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15))),
    "every node live": (_N16, QuerySpec(tuple(range(16)))),
    # Node 2 meets only x0.  Its parents 5 and 8 meet only x0 under the
    # evidence on x2, and its parent 12 meets x0 and x1.  The root meets
    # two query columns, so it is the one table leaf, filled through all of
    # these.
    "shared one-column node": (
        parse_circuit(
            "spn v1\nvars 3\n"
            "leaf 0 bernoulli 0 0.2\nleaf 1 bernoulli 0 0.7\nsum 2 0:0.4 1:0.6\n"
            "leaf 3 bernoulli 2 0.3\nleaf 4 bernoulli 2 0.8\nprod 5 2 3\n"
            "leaf 6 bernoulli 1 0.1\nleaf 7 bernoulli 1 0.6\nprod 8 2 4\nsum 9 5:0.5 8:0.5\n"
            "prod 10 9 6\nprod 11 7 3\nprod 12 2 11\nsum 13 10:0.5 12:0.5\nroot 13\n"
        ),
        QuerySpec((0, 1), {2: 1}),
    ),
    # Query columns: x2 -> 0, x0 -> 1, x1 -> 2, x3 -> 3.  Node 4 meets
    # columns 1 and 2, and is shared by its two-column parent 11 and its
    # three-column parent 13.  Node 2 meets only column 2, the last of its
    # parent 4's tuple and the first of its parent 7's, which also has the
    # constant child 6 under the evidence on x4.  The root meets four query
    # columns, so it is the one table leaf, filled through all of these.
    "shared two-column node": (
        parse_circuit(
            "spn v1\nvars 5\n"
            "leaf 0 bernoulli 1 0.2\nleaf 1 bernoulli 1 0.7\nsum 2 0:0.4 1:0.6\n"
            "leaf 3 bernoulli 0 0.3\nprod 4 3 2\n"
            "leaf 5 bernoulli 3 0.8\nleaf 6 bernoulli 4 0.35\nprod 7 2 5 6\n"
            "leaf 8 bernoulli 0 0.9\nleaf 9 bernoulli 1 0.1\nprod 10 8 9\nsum 11 4:0.3 10:0.7\n"
            "leaf 12 bernoulli 2 0.6\nprod 13 4 12\n"
            "leaf 14 bernoulli 3 0.25\nleaf 15 bernoulli 4 0.55\nprod 16 13 14 15\n"
            "leaf 17 bernoulli 0 0.45\nleaf 18 bernoulli 2 0.15\nprod 19 17 18\nprod 20 7 19\n"
            "leaf 21 bernoulli 2 0.85\nleaf 22 bernoulli 3 0.4\nleaf 23 bernoulli 4 0.65\nprod 24 11 21 22 23\n"
            "sum 25 16:0.5 20:0.3 24:0.2\nroot 25\n"
        ),
        QuerySpec((2, 0, 1, 3), {4: 1}),
    ),
    # Query columns: x2 -> 0, x0 -> 1, x5 -> 2, x1 -> 3, x4 -> 4, x3 -> 5.
    # Node 6 joins columns {0, 2} and {1, 3}, and node 13 joins {3} and,
    # through the three-column node 11, {0, 1, 2}, so each interleaves its
    # children's columns in its tuple (0, 1, 2, 3).  Their sum 14 meets
    # four columns and is shared by its four-column parent 16, behind the
    # constant child 15 under the evidence on x6, and by its five-column
    # parent 18.  The kept op 22 has the constant children 20 and 21 (x7 is
    # summed out), and 17, 19 and 26 are table leaves that meet fewer than
    # four columns.
    "shared four-column node": (
        parse_circuit(
            "spn v1\nvars 8\n"
            "leaf 0 bernoulli 2 0.2\nleaf 1 bernoulli 5 0.7\nprod 2 0 1\n"
            "leaf 3 bernoulli 0 0.35\nleaf 4 bernoulli 1 0.6\nprod 5 3 4\nprod 6 2 5\n"
            "leaf 7 bernoulli 0 0.8\nleaf 8 bernoulli 2 0.45\nleaf 9 bernoulli 5 0.15\nprod 10 8 9\n"
            "prod 11 7 10\nleaf 12 bernoulli 1 0.3\nprod 13 12 11\nsum 14 6:0.4 13:0.6\n"
            "leaf 15 bernoulli 6 0.9\nprod 16 15 14\nleaf 17 bernoulli 4 0.25\nprod 18 14 17\n"
            "leaf 19 bernoulli 3 0.55\nleaf 20 bernoulli 6 0.4\nleaf 21 bernoulli 7 0.65\nprod 22 18 19 20 21\n"
            "leaf 23 bernoulli 4 0.7\nleaf 24 bernoulli 3 0.1\nleaf 25 bernoulli 7 0.5\nprod 26 23 24 25\n"
            "prod 27 16 26\nsum 28 22:0.3 27:0.7\nroot 28\n"
        ),
        QuerySpec((2, 0, 5, 1, 4, 3), {6: 1}, (7,)),
    ),
}


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_folded_scoring_is_bit_identical_to_full_pass(case, monkeypatch):
    c, spec = FOLD_CASES[case]
    oracle = make_oracle(c, spec)
    oracle.sample(1, 0)  # builds the sampler's tables
    n = oracle.num_query
    q_mask = sum(1 << v for v in spec.query_vars)
    live = [i for i, scope in enumerate(c.scopes) if scope & q_mask]
    assert _descent_nodes(oracle) == live
    if case == "every node live":
        assert len(live) == len(c.nodes) and len(oracle._ops) == len(c._plan.ops)
        assert all(kept is op for kept, op in zip(oracle._ops, c._plan.ops))
    rng = np.random.default_rng(3)
    q_rows = rng.integers(0, 2, size=(400, n)).astype(np.int8)
    partial = np.where(rng.random(q_rows.shape) < 0.3, MARGINAL, q_rows).astype(np.int8)
    # Radius-1 balls around row 0 take the incremental path; with one query
    # variable every batch of complete rows is such a ball.
    balls = [hamming_ball(center, 1) for center in (np.zeros(n), np.ones(n), *oracle.sample(2, 11))]
    rest = np.concatenate((balls[2][1:], balls[2][[0, 0, 1, -1]]))
    shuffled = np.concatenate((balls[2][:1], rest[rng.permutation(len(rest))]))
    near_misses = []
    for ball in balls:
        marginal = ball.copy()
        marginal[-1, 0] = MARGINAL
        near_misses += [marginal, ball[:1]]
        if n > 1:
            far = ball.copy()
            far[-1] = ball[0]
            far[-1, :2] ^= 1
            near_misses.append(far)
    blocks = [(q_rows, n == 1), (partial, False), (oracle.sample(400, 7), n == 1)]
    blocks += [(ball, True) for ball in balls] + [(shuffled, True)]
    blocks += [(block, False) for block in near_misses]

    incremental = []
    score_ball = oracle._score_ball
    monkeypatch.setattr(oracle, "_score_ball", lambda *args: incremental.append(1) or score_ball(*args))
    for block, is_ball in blocks:
        full = np.full((len(block), c.num_vars), MARGINAL, dtype=np.int8)
        for v, val in spec.evidence.items():
            full[:, v] = val
        full[:, list(spec.query_vars)] = block
        want = c.log_root(full) - oracle.log_p_evidence
        taken = len(incremental)
        assert oracle.log_prob_rows(block).tobytes() == want.tobytes()
        assert len(incremental) - taken == is_ball


def _descent_nodes(oracle) -> list[int]:
    """The node ids the sampler's descent keeps, ascending: its kept ops'
    nodes, and its leaves, whose ids its leaf key offsets id * GAMMA (mod
    2**64) hold."""
    full = oracle.circuit._plan
    inner = [full.live[op.ids] for op in oracle._ops]
    leaves = np.unique(oracle._leaf_keys * np.uint64(pow(rng_module._GAMMA, -1, 2**64))).astype(np.int64)
    return sorted(np.concatenate(inner + [leaves]).tolist())


def _assert_packed(plan):
    """Value rows are the leaves, then each op's nodes in op order, then the
    constants; every child row is an earlier row or a constant."""
    n_leaves = plan.leaf_base.size
    assert plan.leaf_cols.shape[0] == n_leaves
    assert plan.leaf_table.shape[1] == 3 ** plan.leaf_cols.shape[1]
    start = n_leaves
    for op in plan.ops:
        assert op.ids.tolist() == list(range(start, start + op.ids.size))
        assert ((op.kids < start) | (op.kids >= plan.live.size)).all()
        start += op.ids.size
    assert start == plan.live.size == plan.size - plan.consts.size


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_plans_are_packed(case):
    c, spec = FOLD_CASES[case]
    _assert_packed(c._plan)
    assert sorted(c._plan.live.tolist()) == list(range(len(c.nodes)))
    oracle = make_oracle(c, spec)
    oracle.log_prob_rows(hamming_ball(np.zeros(oracle.num_query), 1))  # builds the scoring and ball plans
    plan = oracle._score_plan
    _assert_packed(plan)
    q_mask = sum(1 << v for v in spec.query_vars)
    in_q = [bin(scope & q_mask).count("1") for scope in c.scopes]
    assert all(in_q[i] for i in plan.live)

    # The ball plan, as production builds it: the leaves and their slots,
    # then per op its nodes and their slots.  A node has one slot per query
    # variable in its scope.
    ball, roots = oracle._ball
    _assert_packed(ball)
    n_leaves = plan.leaf_base.size
    leaves = plan.live[:n_leaves]
    slots = np.repeat(leaves, [in_q[i] for i in leaves])
    assert ball.live[: n_leaves + slots.size].tolist() == leaves.tolist() + slots.tolist()
    for op, ball_op in zip(plan.ops, ball.ops, strict=True):
        assert ball.live[ball_op.ids[: op.ids.size]].tolist() == plan.live[op.ids].tolist()
    kept = set(plan.live.tolist())
    assert np.bincount(ball.live, minlength=len(c.nodes)).tolist() == [
        1 + n if i in kept else 0 for i, n in enumerate(in_q)
    ]
    assert ball.live[roots[0]] == c.root and ball.consts is plan.consts


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_scoring_plan_keeps_ops_that_meet_two_query_variables(case):
    # The name is kept from the one-column tables; with four-column table
    # leaves every op meets five or more query variables.
    c, spec = FOLD_CASES[case]
    oracle = make_oracle(c, spec)
    oracle.log_prob_rows(np.zeros((1, oracle.num_query)))  # builds the scoring plan
    plan = oracle._score_plan
    _assert_packed(plan)
    n_leaves = plan.leaf_base.size
    assert plan.leaf_cols.shape == (n_leaves, 4) and plan.leaf_table.shape == (n_leaves, 81)
    q_cols = {v: j for j, v in enumerate(spec.query_vars)}

    def columns(node):
        return sorted(q_cols[v] for v in range(c.num_vars) if c.scopes[node] >> v & 1 and v in q_cols)

    for op in plan.ops:
        assert all(len(columns(node)) >= 5 for node in plan.live[op.ids])
    # A table leaf's tuple is the columns it meets in ascending order,
    # padded with its first column, and its table ignores the padded digits.
    for leaf, cols, table in zip(plan.live[:n_leaves], plan.leaf_cols, plan.leaf_table, strict=True):
        met = columns(leaf)
        assert cols[: len(met)].tolist() == met and (cols[len(met) :] == cols[0]).all()
        by_digits = table.reshape(3 ** len(met), -1)
        assert (by_digits == by_digits[:, :1]).all()
    layout = {
        "live": plan.live.tolist(),
        "leaf_cols": plan.leaf_cols.tolist(),
        "ops": [plan.live[op.ids].tolist() for op in plan.ops],
    }
    # With four query variables or fewer the root is one table leaf.
    if case in ("deterministic", "pmf"):
        assert layout == {"live": [c.root], "leaf_cols": [[0, 1, 2, 0]], "ops": []}
    if case == "one query variable":
        assert layout == {"live": [c.root], "leaf_cols": [[0, 0, 0, 0]], "ops": []}
    if case == "shared one-column node":
        assert layout == {"live": [13], "leaf_cols": [[0, 1, 0, 0]], "ops": []}
    if case == "shared two-column node":
        assert layout == {"live": [25], "leaf_cols": [[0, 1, 2, 3]], "ops": []}
    if case == "shared four-column node":
        # Leaves in full-plan row order: the circuit's leaves, then by level.
        assert layout == {
            "live": [17, 19, 26, 14, 16, 18, 27, 22, 28],
            "leaf_cols": [[4, 4, 4, 4], [5, 5, 5, 5], [4, 5, 4, 4], [0, 1, 2, 3], [0, 1, 2, 3]],
            "ops": [[18], [27], [22], [28]],
        }
        assert plan.consts.size == 2  # the evidence leaf 20 and the nuisance leaf 21


@pytest.mark.parametrize("fanout", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_every_table_entry_is_the_full_pass_value_of_its_row(fanout, seed):
    # Entry e of a table leaf is its node's value on the row that holds the
    # evidence, sets the leaf's tuple column p to digit p of e minus 1 and
    # leaves every other variable MARGINAL.  The digits are written from the
    # last position down, so a padded position never overrides the first.
    c = generate_random_circuit(24, 3, fanout, seed)
    perm = np.random.default_rng(seed).permutation(24)
    query = tuple(sorted(perm[:12].tolist()))
    spec = QuerySpec(query, {int(v): int(v) % 2 for v in perm[12:18]}, tuple(sorted(perm[18:].tolist())))
    oracle = make_oracle(c, spec)
    oracle.log_prob_rows(np.zeros((1, oracle.num_query)))  # builds the scoring plan
    plan = oracle._score_plan
    q_mask = sum(1 << v for v in query)
    digits = np.arange(81)[:, None] // 3 ** np.arange(3, -1, -1) % 3 - 1  # (81, 4): digit p of e, minus 1
    n_leaves = plan.leaf_base.size
    assert n_leaves > 0
    for leaf, cols, table in zip(plan.live[:n_leaves], plan.leaf_cols, plan.leaf_table, strict=True):
        met = bin(c.scopes[leaf] & q_mask).count("1")
        assert (np.diff(cols[:met]) > 0).all() and (cols[met:] == cols[0]).all()
        rows = np.full((81, 24), MARGINAL, dtype=np.int8)
        for v, val in spec.evidence.items():
            rows[:, v] = val
        for p in reversed(range(4)):
            rows[:, query[cols[p]]] = digits[:, p]
        assert table.tobytes() == c.log_forward(rows)[leaf].tobytes()


# Scoring plans of the n = 256 stress circuit, evidence 0 off the query set:
# (value rows, table leaves, op nodes) at query shares .1/.25/.5.  With one-
# column table leaves they were (539, 208, 269), (1233, 512, 616) and
# (2219, 1024, 1109); with two-column ones (291, 135, 145), (673, 318, 336)
# and (1271, 627, 635).
STRESS_PLAN_SIZES = {0.10: (149, 74, 74), 0.25: (351, 176, 175), 0.50: (693, 346, 346)}


@pytest.mark.parametrize("share", list(STRESS_PLAN_SIZES))
def test_stress_scoring_plan_sizes_are_pinned(share):
    c = generate_random_circuit(256, 3, 2, 404)
    query = random_query_partition(256, share, DrawStream(7)).query_vars
    spec = QuerySpec(query, {v: 0 for v in range(256) if v not in query})
    oracle = make_oracle(c, spec)
    oracle.log_prob_rows(np.zeros((1, oracle.num_query)))  # builds the scoring plan
    plan = oracle._score_plan
    sizes = (plan.size, plan.leaf_base.size, sum(op.ids.size for op in plan.ops))
    assert sizes == STRESS_PLAN_SIZES[share]


@pytest.mark.parametrize("case", ["evidence+nuisance", "deterministic", "shared one-column node", "shared two-column node"])
def test_lazy_plans_give_the_bytes_of_a_fresh_oracle(case):
    c, spec = FOLD_CASES[case]
    rows = np.random.default_rng(4).integers(0, 2, size=(50, len(spec.query_vars))).astype(np.int8)
    ball = hamming_ball(rows[0], 1)

    def answers(oracle, order):
        out = {}
        for step in order:
            if step == "sample":
                out[step] = oracle.sample(300, DrawStream(8)).tobytes()
            else:
                out[step] = oracle.log_prob_rows(rows if step == "score" else ball).tobytes()
        return out

    fresh = {step: answers(make_oracle(c, spec), [step])[step] for step in ("score", "ball", "sample")}
    assert answers(make_oracle(c, spec), ["score", "ball", "sample"]) == fresh
    assert answers(make_oracle(c, spec), ["sample", "ball", "score"]) == fresh


def test_a_shared_oracle_gives_each_thread_the_bytes_of_one_thread():
    # Four threads released at once build the sampler's tables, the scoring
    # plan and the ball plan of one fresh oracle together; a table published
    # before the tables it needs would fail a thread or change its answers.
    c = generate_random_circuit(64, 3, 2, 303)  # the n = 64 corpus circuit
    query = random_query_partition(64, 0.5, DrawStream(7)).query_vars
    evidence = draw_evidence(c, tuple(v for v in range(64) if v not in query), "model", DrawStream(8))
    spec = QuerySpec(query, evidence)

    def answers(oracle, seed):
        draws = oracle.sample(2000, seed)
        scores = oracle.log_prob_rows(draws)
        return draws.tobytes(), scores.tobytes(), oracle.log_prob_rows(hamming_ball(draws[0], 1)).tobytes()

    want = [answers(make_oracle(c, spec), seed) for seed in range(4)]
    shared = make_oracle(c, spec)
    barrier = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def run(i):
        barrier.wait()
        got[i] = answers(shared, i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_a_thread_held_in_the_sampler_build_leaves_the_oracle_whole(monkeypatch):
    # One thread is held inside its descent build, at the leaf tables (the
    # only unit_thresholds call with a 1-D input), while a second thread
    # samples and scores on the same oracle to completion.  The second must
    # not see tables that the held build has published before its leaf
    # tables, and the held build, released, must not spoil the first.
    c = generate_random_circuit(32, 3, 2, 202)  # the n = 32 corpus circuit
    spec = QuerySpec(tuple(range(0, 32, 2)), {}, tuple(range(1, 32, 2)))

    def answers(oracle, seed):
        draws = oracle.sample(500, seed)
        return draws.tobytes(), oracle.log_prob_rows(draws).tobytes()

    want = [answers(make_oracle(c, spec), seed) for seed in range(2)]
    shared = make_oracle(c, spec)
    inside, release = threading.Event(), threading.Event()
    real = inference_module.unit_thresholds

    def held(x):
        if threading.current_thread() is holder and np.ndim(x) == 1:
            inside.set()
            release.wait(timeout=60)
        return real(x)

    monkeypatch.setattr(inference_module, "unit_thresholds", held)
    got, errors = [None, None], []

    def run(i):
        try:
            got[i] = answers(shared, i)
        except Exception as exc:  # reported below, as a thread's exception is lost
            errors.append(exc)

    holder = threading.Thread(target=run, args=(0,))
    other = threading.Thread(target=run, args=(1,))
    holder.start()
    try:
        assert inside.wait(timeout=60)
        other.start()
        other.join(timeout=60)
        finished_while_held = not other.is_alive()
    finally:
        release.set()
    holder.join(timeout=60)
    other.join(timeout=60)
    assert not holder.is_alive() and not other.is_alive()
    assert errors == []
    assert finished_while_held
    assert got == want


def test_each_path_builds_only_the_plan_it_runs(monkeypatch):
    builds, counts = [], []  # the widths of the scoring plans built, the columns counted
    fold, column_counts = Circuit._fold, Circuit._column_counts

    def counted_fold(self, counts, width, upward):
        builds.append(width)
        return fold(self, counts, width, upward)

    def counted_counts(self, columns):
        counts.append(tuple(columns))
        return column_counts(self, columns)

    monkeypatch.setattr(Circuit, "_fold", counted_fold)
    monkeypatch.setattr(Circuit, "_column_counts", counted_counts)
    c, spec = FOLD_CASES["evidence+nuisance"]
    sample_joint(c, 10, 0)
    assert builds == []  # the sampler reads the full plan
    counts.clear()  # the joint oracle may have been built by an earlier test
    oracle = make_oracle(c, spec)
    max_product(c, spec, oracle)
    arg_max_product(c, spec, oracle)
    independent_map(oracle)
    # The baselines score by full passes and count no columns.
    assert builds == [] and counts == [] and oracle._score_plan is None
    ball = hamming_ball(np.zeros(oracle.num_query), 1)
    oracle.log_prob_rows(ball)
    assert builds == [oracle.num_query] and counts == [spec.query_vars] and oracle._descent is None
    oracle.log_prob_rows(ball[::-1])
    oracle.sample(10, 0)
    oracle.log_prob_rows(np.zeros((3, oracle.num_query)))
    assert builds == [oracle.num_query] and counts == [spec.query_vars]

    # However many calls follow, the columns are counted once per oracle,
    # whichever of the sampler and the scoring plan is built first.
    def sample(o):
        o.sample(10, 0)

    def score(o):
        o.log_prob_rows(np.zeros((3, o.num_query)))

    for steps in ((sample, score, sample, score), (score, sample, score, sample)):
        builds.clear()
        counts.clear()
        oracle = make_oracle(c, spec)
        for step in steps:
            step(oracle)
        assert builds == [oracle.num_query] and counts == [spec.query_vars]


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_full_passes_return_rows_in_node_id_order(case):
    # Each node's row must follow from its children's rows by the node's own
    # rule, which a row in any other order breaks.
    c, spec = FOLD_CASES[case]
    rows = np.random.default_rng(5).choice(np.array([0, 1, MARGINAL], dtype=np.int8), size=(50, c.num_vars))
    for maximize, evaluate in ((False, c.log_forward), (True, c.max_forward)):
        values = evaluate(rows)
        assert values.shape == (len(c.nodes), 50)
        with np.errstate(divide="ignore"):
            for i, node in enumerate(c.nodes):
                if isinstance(node, ProductNode):
                    want = values[list(node.children)].sum(axis=0)
                elif isinstance(node, SumNode):
                    terms = values[list(node.children)] + np.log(node.weights)[:, None]
                    want = terms.max(axis=0) if maximize else np.logaddexp.reduce(terms, axis=0)
                else:
                    theta = node.theta if isinstance(node, BernoulliLeaf) else float(node.value)
                    log0, log1 = np.log(1.0 - theta), np.log(theta)
                    marginal = max(log0, log1) if maximize else 0.0
                    x = rows[:, node.var]
                    want = np.where(x == MARGINAL, marginal, np.where(x == 1, log1, log0))
                np.testing.assert_allclose(values[i], want, rtol=1e-12, atol=1e-12, err_msg=str(i))


def test_evaluators_refuse_out_of_range_entries_in_a_valid_batch():
    # The leaf step reads entry x of leaf l at 3l + 1 + x of a flat table and
    # clips the index instead of checking it, so a 2 or -2 would silently
    # read a neighbouring leaf's entry; every entry point must refuse it.
    c, spec = FOLD_CASES["evidence+nuisance"]
    oracle = make_oracle(c, spec)
    rng = np.random.default_rng(6)
    for bad in (2, -2):
        rows = rng.integers(0, 2, size=(40, c.num_vars)).astype(np.int8)
        rows[17, 9] = bad
        for evaluate in (c.log_forward, c.max_forward, c.log_root):
            with pytest.raises(ValueError, match="MARGINAL"):
                evaluate(rows)
        q_rows = rows[:, list(spec.query_vars)]
        assert (q_rows == bad).sum() == 1
        with pytest.raises(ValueError, match="MARGINAL"):
            oracle.log_prob_rows(q_rows)
        ball = np.repeat(q_rows[:1], 3, axis=0)  # a radius-1 ball but for the bad entry
        ball[1, 0] ^= 1
        ball[2, 1] = bad
        with pytest.raises(ValueError, match="MARGINAL"):
            oracle.log_prob_rows(ball)


def test_scoring_memory_is_one_chunk(monkeypatch):
    # Each chunk's scratch must be released once its result rows are copied
    # out, before the next chunk's is allocated: scoring keeps (plan rows x
    # chunk) float64 values; sampling keeps a bool matrix of reached nodes,
    # then per query column and draw a leaf index, key and threshold, which
    # on this circuit outweigh the sum steps' scratch.  Two live
    # matrices put scoring's ratio near 1.6-1.7.
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", 1_600_000)
    c = generate_random_circuit(64, 3, 2, 303)
    oracle = make_oracle(c, HALF_QUERY)
    oracle.sample(1, 0)  # builds the sampler's tables
    oracle.log_prob_rows(np.zeros((1, oracle.num_query)))  # builds the scoring plan
    sample_bytes = oracle._active_rows + 1 + 8 + inference_module._LEAF_BYTES * oracle.num_query
    assert oracle._sample_row_bytes == sample_bytes
    for run, size, itemsize, width in (
        (c.log_root, len(c.nodes), 8, c.num_vars),
        (oracle.log_prob_rows, oracle._score_plan.size, 8, oracle.num_query),
        (lambda rows: oracle.sample(len(rows), 0), sample_bytes, 1, oracle.num_query),
    ):
        chunk = circuit_module._chunk_rows(size, itemsize)
        assert chunk == 1_600_000 // (size * itemsize)
        rows = np.random.default_rng(0).integers(0, 2, size=(8 * chunk, width)).astype(np.int8)
        peaks = []
        for block in (rows[:chunk], rows):
            tracemalloc.start()
            try:
                run(block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
        if itemsize == 1:  # sampling's scratch stays within the chunk budget
            assert peaks[0] - chunk * width <= 1_600_000, peaks


@pytest.mark.parametrize("chunk_bytes", [None, 400_000])
@pytest.mark.parametrize("step", [10, 4, 2])
def test_sampling_memory_is_one_chunk(step, chunk_bytes, monkeypatch):
    # On the n = 256 stress circuit at |Q| = 26/64/128: sample(n)'s traced
    # peak, less its (n, |Q|) int8 output, stays within the scratch one chunk
    # is sized for, _sample_row_bytes per draw, at one chunk and at eight.
    # Under the smaller budget a chunk's leaf step is one block, whose
    # scratch per entry is all of _LEAF_BYTES, and the bound then also has to
    # hold the buffer of getbufsize() 8-byte entries in which numpy iterates a
    # broadcast operand (the leaf step's row and column adds).
    allowance = 0
    if chunk_bytes is not None:
        monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", chunk_bytes)
        allowance = 8 * np.getbufsize()
    c = generate_random_circuit(256, 3, 2, 404)
    query = tuple(range(0, 256, step))
    oracle = make_oracle(c, QuerySpec(query, {}, tuple(v for v in range(256) if v % step)))
    oracle.sample(1, 0)  # builds the sampler's tables
    chunk = circuit_module._chunk_rows(oracle._sample_row_bytes, 1)
    for rows in (chunk, 8 * chunk):
        tracemalloc.start()
        try:
            oracle.sample(rows, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows * len(query) <= oracle._sample_row_bytes * chunk + allowance, (rows, peak)


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


def test_sampler_resolves_columns_with_more_than_256_leaves():
    # 300 components, each a product of one leaf per variable: every query
    # column has 300 leaves, so the leaf step's slots take two bytes.  The
    # last 44 components, which a one-byte slot would confuse with the
    # first, put x = (1, 1) at 0.95^2 and hold about 63% of the mass.
    k = 300
    weights = np.where(np.arange(k) < 256, 1.0, 10.0)
    weights /= weights.sum()
    lines = ["spn v1", "vars 2"]
    for i in range(k):
        theta = 0.95 if i >= 256 else 0.05
        lines += [f"leaf {2 * i} bernoulli 0 {theta}", f"leaf {2 * i + 1} bernoulli 1 {theta}"]
    lines += [f"prod {2 * k + i} {2 * i} {2 * i + 1}" for i in range(k)]
    lines += ["sum %d %s" % (3 * k, " ".join(f"{2 * k + i}:{w!r}" for i, w in enumerate(weights.tolist()))), f"root {3 * k}"]
    oracle = make_oracle(parse_circuit("\n".join(lines) + "\n"), QuerySpec((0, 1)))
    draws = oracle.sample(10**5, 5)
    assert oracle._slot_dtype == np.uint16
    emp = np.bincount(pack_rows(draws).astype(np.int64), minlength=4) / 1e5
    assert total_variation(emp, np.exp(tabulate_conditional(oracle).log_probs)) <= 0.01


def test_sampler_never_descends_into_zero_mass_child():
    # With x0 = 0 observed, the root's last child (node 9, x0 = 1) has zero
    # mass, and so do both of node 9's children.  Their leaves have theta 1,
    # so a draw with x1 = 1 would come from that branch.
    text = (
        "spn v1\nvars 2\nleaf 0 indicator 0 0\nleaf 1 bernoulli 1 0\nprod 2 0 1\n"
        "leaf 3 indicator 0 1\nleaf 4 bernoulli 1 1\nprod 5 3 4\n"
        "leaf 6 indicator 0 1\nleaf 7 bernoulli 1 1\nprod 8 6 7\nsum 9 5:0.5 8:0.5\n"
        "leaf 10 indicator 0 0\nleaf 11 bernoulli 1 0\nprod 12 10 11\n"
        "sum 13 2:0.4 12:0.3 9:0.3\nroot 13\n"
    )
    oracle = make_oracle(parse_circuit(text), QuerySpec((1,), {0: 0}))
    oracle.sample(1, 0)  # builds the sampler's tables

    def descent(node):
        """The sum node's column of its op's threshold table (a view)."""
        r = int(np.flatnonzero(oracle.circuit._plan.live == node)[0])  # its full-plan row
        for op, table in zip(oracle._ops, oracle._descent):
            if r in op.ids:
                return table[0][:, int(np.flatnonzero(op.ids == r)[0])]

    # A threshold of 2**53 is above every 53-bit integer a uniform is drawn
    # as, so no draw passes it.
    assert (descent(9) == 2**53).all()
    cum = descent(13)
    assert cum[0] == unit_thresholds(4 / 7) and cum[0] == pytest.approx(4 / 7 * 2**53) and cum[1] == 2**53
    # A float cumsum can end below the node's mass, which leaves uniforms
    # past its last finite entry.
    cum[0] //= 2
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


def _fresh_joint(c, count, stream):
    return ConditionalOracle(c, QuerySpec(tuple(range(c.num_vars)))).sample(count, stream)


@pytest.mark.parametrize("seed", [0, 5, 29])
def test_sample_joint_draws_the_rows_of_a_fresh_oracle(seed):
    # Two circuits drawn from in turn, so the kept sampler is swapped at every
    # call; each circuit's stream is reused, so its cursor advances.
    circuits = (generate_random_circuit(16, 3, 2, 101), generate_random_circuit(32, 3, 2, 202))
    shared = [DrawStream(seed), DrawStream(seed + 1)]
    fresh = [DrawStream(seed), DrawStream(seed + 1)]
    for count in (1, 64, 1, 64):
        for i, c in enumerate(circuits):
            got = sample_joint(c, count, shared[i])
            assert got.tobytes() == _fresh_joint(c, count, fresh[i]).tobytes()
            assert sample_joint(c, count, seed + count).tobytes() == _fresh_joint(c, count, seed + count).tobytes()


def test_sample_joint_builds_one_sampler_per_circuit_and_keeps_no_dropped_circuit(monkeypatch):
    built = []
    init = ConditionalOracle.__init__

    def counted(self, circuit, spec):
        built.append(circuit)
        init(self, circuit, spec)

    monkeypatch.setattr(ConditionalOracle, "__init__", counted)
    c = generate_random_circuit(16, 3, 2, 101)
    for seed in range(30):
        draw_evidence(c, tuple(range(0, 16, 2)), "model", DrawStream(seed))
    assert len(built) == 1 and built[0] is c
    built.clear()

    # Without the cyclic collector, a dropped circuit is freed by reference
    # counting alone once another circuit's sampler has replaced its own;
    # a sampler stored on the circuit would keep it alive in a cycle.
    gc.disable()
    try:
        gone = weakref.ref(c)
        del c
        sample_joint(generate_random_circuit(8, 3, 2, 7), 1, 0)
        assert gone() is None
    finally:
        gc.enable()


def test_threads_sharing_one_circuit_sampler_get_the_bytes_of_one_thread():
    # Four threads released at once on a circuit no sampler has been built
    # for: the first builds may race, and every thread still gets its bytes.
    want = [_fresh_joint(generate_random_circuit(64, 3, 2, 303), 500, seed).tobytes() for seed in range(4)]
    c = generate_random_circuit(64, 3, 2, 303)
    barrier = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def run(i):
        barrier.wait()
        got[i] = sample_joint(c, 500, i).tobytes()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


# sha256 of oracle.sample(count, DrawStream(29)).tobytes(), recorded before
# the sampler walked only the query-live nodes.
SAMPLE_DIGESTS = {
    ("evidence+nuisance", 1): "a4e9167dc11a5b8ba7e09c85bafdea0b6e0b399ce50086545509017050b33097",
    ("evidence+nuisance", 5000): "e9358bad2a2946faed17529094c8340777be70a1f8d47a707d64d19bcadeb019",
    ("deterministic", 1): "faee935763044f124d7526755a5058a33f9402a595994d59eddd4be8546ff201",
    ("deterministic", 5000): "4567bd7eb525fd2ae3fd4ba3ba757110a2c9b36ecf07fa168d80d14a41a3ae1e",
    ("n64", 1): "0ec2ba93863c8db22896bd28f62d67b097e8cb6ed6d6998c497c18eef30b1737",
    ("n64", 5000): "a134d73602ff3136017d957481ca99ebe6d0d7c8483944a4b5c27d2fa21b3608",
}


@pytest.mark.parametrize("name,count", list(SAMPLE_DIGESTS))
def test_sampler_draws_are_pinned(name, count):
    circuits = {
        "evidence+nuisance": lambda: generate_random_circuit(16, depth=3, fanout=2, seed=101),
        "deterministic": lambda: generate_deterministic_circuit(6, seed=2),
        "n64": lambda: generate_random_circuit(64, depth=3, fanout=2, seed=303),
    }
    specs = {
        "evidence+nuisance": QuerySpec((0, 3, 7, 9, 12), {1: 1, 4: 0, 10: 1, 15: 0}, (2, 5, 6, 8, 11, 13, 14)),
        "deterministic": QuerySpec((2, 3, 5), {0: 1, 1: 0}, (4,)),
        "n64": QuerySpec(
            tuple(range(0, 64, 4)), {v: v % 2 for v in range(1, 64, 4)}, tuple(v for v in range(64) if v % 4 > 1)
        ),
    }
    draws = make_oracle(circuits[name](), specs[name]).sample(count, DrawStream(29))
    assert draws.shape == (count, len(specs[name].query_vars))
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[name, count]


# Smooth, decomposable and a DAG: sums 8/9, 10/11, 17/18 and 19/20 share
# their children, and within one op products 14/15/16 share 8 and 10 and
# products 21/22/23 share 17 and 19.
SHARED_CHILDREN = parse_circuit(
    "spn v1\nvars 4\n"
    "leaf 0 bernoulli 0 0.2\nleaf 1 bernoulli 0 0.7\nleaf 2 bernoulli 1 0.4\nleaf 3 bernoulli 1 0.9\n"
    "leaf 4 bernoulli 2 0.3\nleaf 5 bernoulli 2 0.6\nleaf 6 bernoulli 3 0.1\nleaf 7 bernoulli 3 0.8\n"
    "sum 8 0:0.3 1:0.7\nsum 9 0:0.6 1:0.4\nsum 10 2:0.5 3:0.5\nsum 11 3:0.2 2:0.8\n"
    "prod 12 4 6\nprod 13 5 7\n"
    "prod 14 8 10\nprod 15 8 11\nprod 16 9 10\n"
    "sum 17 12:0.35 13:0.65\nsum 18 13:0.55 12:0.45\n"
    "sum 19 14:0.5 15:0.3 16:0.2\nsum 20 15:0.4 14:0.35 16:0.25\n"
    "prod 21 19 17\nprod 22 20 17\nprod 23 19 18\n"
    "sum 24 21:0.5 22:0.3 23:0.2\nroot 24\n"
)
SHARED_SPECS = {"evidence": QuerySpec((3, 0, 1), {2: 1}), "full": QuerySpec((0, 1, 2, 3))}
# sha256 of oracle.sample(count, DrawStream(29)).tobytes(), recorded while
# the sampler still walked the plan node by node.
SHARED_DIGESTS = {
    ("evidence", 1): "85f90dfea1d8027e1463e5ca971a250110a20df0119d204a74220bc63516d15b",
    ("evidence", 5000): "4356462c6c157f3a829b76d7cf19e05bb5a5acf8b5cc4a828f8a95e30f2b9c00",
    ("full", 1): "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae",
    ("full", 5000): "ebde1a6fa42234f0ed76d4f2ae4f1c9204807634111e025f0a1b4dacbb3f64d3",
}


@pytest.mark.parametrize("name,count", list(SHARED_DIGESTS))
def test_sampler_draws_are_pinned_with_shared_children(name, count):
    draws = make_oracle(SHARED_CHILDREN, SHARED_SPECS[name]).sample(count, DrawStream(29))
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SHARED_DIGESTS[name, count]


# sha256 of table.sample(2000, DrawStream(seed)).tobytes() for a Dirichlet
# table over 10 variables, recorded before the table sampler's numpy calls
# were cut.
TABLE_SAMPLE_DIGESTS = {
    3: "f5c02f8eb964573f3b4232dadbd36d9b5c807fa61ea7e885afa8d19663e64494",
    11: "37e96888f5da8b972700696f6a10631988bbd433ad8f689d1ccc4af3a933e666",
}


@pytest.mark.parametrize("seed", list(TABLE_SAMPLE_DIGESTS))
def test_table_sampler_draws_are_pinned(seed):
    table = TabularDistribution.from_probs(np.random.default_rng(5).dirichlet(np.full(2**10, 0.3)))
    draws = table.sample(2000, DrawStream(seed))
    assert (draws.dtype, draws.shape, draws.flags.c_contiguous) == (np.int8, (2000, 10), True)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == TABLE_SAMPLE_DIGESTS[seed]


def _reference_draws(c: Circuit, spec: QuerySpec, count: int, seed: int) -> np.ndarray:
    """Draws walked node by node from the root, one draw at a time, from
    the circuit's own nodes and a full pass, sharing no code with the
    sampler's plan or tables.

    A sum picks the child at the count of its cumulative child-selection
    probabilities <= u, which are +inf from its last positive-mass child on;
    a product enters every child; a query leaf draws u < theta, where an
    indicator's theta is its value.  The uniform of (draw, node) is
    counter_uniforms(seed, draw * len(nodes) + node).  A node that meets no
    query variable would only set variables the draw discards, and the
    uniforms of the others do not depend on it, so it is not entered.
    """
    row = np.full((1, c.num_vars), MARGINAL, dtype=np.int8)
    for v, val in spec.evidence.items():
        row[0, v] = val
    up = c.log_forward(row)[:, 0]
    q_mask = sum(1 << v for v in spec.query_vars)
    col_of = {v: j for j, v in enumerate(spec.query_vars)}
    u = counter_uniforms(seed, np.arange(count * len(c.nodes), dtype=np.uint64)).reshape(count, -1)
    out = np.full((count, len(spec.query_vars)), -1, dtype=np.int8)
    for d in range(count):
        stack = [c.root]
        while stack:
            i = stack.pop()
            node = c.nodes[i]
            if not c.scopes[i] & q_mask:
                continue
            if isinstance(node, SumNode):
                probs = np.exp(np.log(node.weights) + up[list(node.children)] - up[i])
                later = np.cumsum((probs > 0)[::-1])[::-1][1:] > 0  # a later child has mass
                cums = np.where(later, np.cumsum(probs[:-1]), np.inf)
                stack.append(node.children[int((cums <= u[d, i]).sum())])
            elif isinstance(node, ProductNode):
                stack.extend(node.children)
            else:
                theta = node.value if isinstance(node, IndicatorLeaf) else node.theta
                out[d, col_of[node.var]] = u[d, i] < theta
    return out


@pytest.mark.parametrize(
    "name", [f"fold {case}" for case in FOLD_CASES] + [f"shared {name}" for name in SHARED_SPECS]
)
def test_sampler_matches_a_per_draw_reference_walk(name):
    kind, case = name.split(" ", 1)
    c, spec = FOLD_CASES[case] if kind == "fold" else (SHARED_CHILDREN, SHARED_SPECS[case])
    draws = make_oracle(c, spec).sample(300, DrawStream(29))
    assert draws.tobytes() == _reference_draws(c, spec, 300, 29).tobytes()


@pytest.mark.parametrize("circuit", ["shared", "n64"])
def test_sample_bytes_do_not_depend_on_chunking(circuit, monkeypatch):
    if circuit == "shared":
        oracle = make_oracle(SHARED_CHILDREN, SHARED_SPECS["evidence"])
    else:
        oracle = make_oracle(generate_random_circuit(64, 3, 2, 303), HALF_QUERY)
    calls = []
    descend = ConditionalOracle._descend

    def counted(self, *args):
        calls.append(args[-1].shape[0])
        return descend(self, *args)

    monkeypatch.setattr(ConditionalOracle, "_descend", counted)
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", 10**9)
    whole = oracle.sample(5000, DrawStream(29))
    assert calls == [5000]
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", 60_000)
    assert oracle.sample(5000, DrawStream(29)).tobytes() == whole.tobytes()
    assert len(calls) >= 4


def test_sampler_draws_uniforms_once_per_sum_op(monkeypatch):
    # One chunk finalizes the keys of every uniform of a sum op in one call,
    # and of every leaf uniform of a block of the leaf step in one more (640
    # draws are one block here), however many nodes the descent reaches.
    oracle = make_oracle(generate_random_circuit(64, 3, 2, 303), HALF_QUERY)
    oracle.sample(1, 0)  # builds the sampler's tables
    assert circuit_module._chunk_rows(oracle._sample_row_bytes, 1) >= 640
    assert inference_module._LEAF_BLOCK // oracle.num_query >= 640
    calls = []

    def counted(keys, *scratch):
        calls.append(keys.size)
        return mix53(keys, *scratch)

    monkeypatch.setattr(inference_module, "mix53", counted)
    draws = oracle.sample(640, DrawStream(29))
    monkeypatch.undo()
    assert draws.tobytes() == oracle.sample(640, DrawStream(29)).tobytes()
    sum_ops = sum(op.logw is not None for op in oracle._ops)
    assert 0 < len(calls) <= sum_ops + 1


def _mutate(nodes: tuple, n: int, data) -> list:
    """`nodes` with at most one mutation: a repointed child, a leaf moved to
    another variable, or a theta or sum weight made invalid."""
    kind = data.draw(st.sampled_from(["none", "repoint", "reuse", "theta", "weight"]))
    inner = [i for i, nd in enumerate(nodes) if isinstance(nd, (SumNode, ProductNode))]
    leaves = [i for i, nd in enumerate(nodes) if isinstance(nd, BernoulliLeaf)]
    sums = [i for i in inner if isinstance(nodes[i], SumNode)]
    nodes = list(nodes)
    if kind == "repoint":
        i = data.draw(st.sampled_from(inner))
        kids = list(nodes[i].children)
        kids[data.draw(st.integers(0, len(kids) - 1))] = data.draw(st.integers(0, i - 1))
        nodes[i] = replace(nodes[i], children=tuple(kids))
    elif kind == "reuse":
        i = data.draw(st.sampled_from(leaves))
        nodes[i] = BernoulliLeaf(data.draw(st.integers(0, n - 1)), nodes[i].theta)
    elif kind == "theta":
        i = data.draw(st.sampled_from(leaves))
        nodes[i] = BernoulliLeaf(nodes[i].var, data.draw(st.sampled_from([1.5, -0.1, math.nan, math.inf])))
    elif kind == "weight" and sums:
        i = data.draw(st.sampled_from(sums))
        w = list(nodes[i].weights)
        j = data.draw(st.integers(0, len(w) - 1))
        bad = data.draw(st.sampled_from([-0.5, 0.0, math.nan, math.inf, w[j] + 0.5, None]))
        w = w[:j] + w[j + 1 :] if bad is None else w[:j] + [bad] + w[j + 1 :]
        nodes[i] = SumNode(nodes[i].children, tuple(w))
    return nodes


@given(st.integers(2, 6), st.integers(1, 3), st.integers(2, 3), st.integers(0, 10_000), st.data())
@settings(max_examples=80, deadline=None)
def test_every_circuit_that_builds_answers_exactly(n, depth, fanout, seed, data):
    # A circuit either is refused at construction or gives a normalized
    # conditional, 0/1 draws and 0/1 baseline answers on every query.
    c = generate_random_circuit(n, depth, fanout, seed)
    nodes = _mutate(c.nodes, n, data)
    try:
        c = Circuit(nodes, c.root, n)
    except CircuitStructureError:
        return
    x = sample_joint(c, 1, seed)[0]
    in_q = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    q = [v for v in range(n) if in_q[v]] or [0]
    spec = QuerySpec(tuple(q), {v: int(x[v]) for v in range(n) if v not in q})
    oracle = make_oracle(c, spec)

    rows = enumerate_assignments(len(q))
    full = np.repeat(x[None, :], len(rows), axis=0)
    full[:, q] = rows
    joint = np.array([evaluate_complete(c, row) for row in full])
    got = np.exp(oracle.log_prob_rows(rows))
    assert got.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(got, np.exp(joint - np.logaddexp.reduce(joint)), rtol=0, atol=1e-9)
    assert set(np.unique(oracle.sample(64, seed)).tolist()) <= {0, 1}
    for sol in (max_product(c, spec, oracle), arg_max_product(c, spec, oracle), independent_map(oracle)):
        assert set(sol.q_hat.tolist()) <= {0, 1}


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


def test_tabular_lookup_rejects_non_integer_and_out_of_range_entries():
    table = TabularDistribution.from_probs([0.25] * 4)
    for bad in ([[0.5, 1.0]], [[2, 0]], [[-1, 0]], [[0, 0], [1, 0.5]]):
        with pytest.raises(ValueError, match="0/1"):
            table.log_prob_rows(bad)
    assert table.log_prob_rows([[1.0, 0.0], [0, 1]]) == pytest.approx(np.log([0.25, 0.25]))


def test_tabular_lookup_follows_the_bit_pattern_order():
    table = TabularDistribution.from_probs(np.arange(1, 17))
    assert np.array_equal(table.log_prob_rows(circuit_module.enumerate_assignments(4)), table.log_probs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TabularDistribution(np.full(4, np.nan)),
        lambda: TabularDistribution(np.log([np.nan, 0.5, 0.25, 0.25])),
        lambda: TabularDistribution.from_probs([np.nan, 0.5, 0.25, 0.25]),
        lambda: TabularDistribution.from_probs([np.inf, 0.5, 0.25, 0.25]),
        lambda: TabularDistribution.from_probs([0.0] * 4),
    ],
)
def test_tabular_refuses_non_finite_or_massless_tables(build):
    with pytest.raises(ValueError):
        build()


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


# -- refusals -----------------------------------------------------------------

_ORACLE = make_oracle(circuit_from_pmf([0.1, 0.2, 0.3, 0.4]), QuerySpec((0, 1)))
_TABLE = TabularDistribution.from_probs([0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: QuerySpec((0, 0)).validate(1), "duplicate variable within a set", id="spec-duplicate"),
        pytest.param(lambda: QuerySpec((0,), {1: 2}).validate(2), "evidence values must be 0 or 1", id="spec-evidence"),
        pytest.param(
            lambda: make_oracle(generate_random_circuit(6, 2, 2, 0), QuerySpec((0.0, 1), {2: 1, 3: 0, 4: 1, 5: 0})),
            "query variable must be an integer, not 0.0",
            id="spec-query-float",
        ),
        pytest.param(
            lambda: make_oracle(_ORACLE.circuit, QuerySpec((0,), {1.0: 1})),
            "evidence variable must be an integer, not 1.0",
            id="spec-evidence-float",
        ),
        pytest.param(
            lambda: make_oracle(_ORACLE.circuit, QuerySpec((0,), {}, (np.float64(1),))),
            "nuisance variable must be an integer, not np.float64(1.0)",
            id="spec-nuisance-float",
        ),
        pytest.param(
            lambda: _ORACLE.log_prob_rows(np.zeros((1, 3), np.int8)), "query rows have 3 vars, expected 2", id="rows-width"
        ),
        pytest.param(
            lambda: _ORACLE.conditional_log_prob(np.zeros((1, 2))), "single query assignment expected", id="one-row-2d"
        ),
        pytest.param(
            lambda: _ORACLE.conditional_log_prob([0.5, 1]), "assignment entries must be 0, 1 or MARGINAL", id="one-row-0.5"
        ),
        pytest.param(lambda: _ORACLE.sample(0, 0), "count must be >= 1", id="sample-0"),
        pytest.param(lambda: _ORACLE.sample(2.5, 0), "count must be an integer, not 2.5", id="sample-2.5"),
        pytest.param(lambda: _ORACLE.sample(1, 1.5), "seed must be an integer, not 1.5", id="sample-seed-1.5"),
        pytest.param(lambda: TabularDistribution(np.log([0.5] * 3)), "table length must be a power of two", id="table-3"),
        pytest.param(lambda: TabularDistribution(np.array([])), "table length must be a power of two", id="table-empty"),
        pytest.param(
            lambda: TabularDistribution(np.log([0.5, 0.4])), "table mass 0.9 deviates from 1 beyond 1e-06", id="table-mass"
        ),
        pytest.param(lambda: _TABLE.log_prob_rows(np.zeros((1, 3), np.int8)), "query arity mismatch", id="table-width"),
        pytest.param(
            lambda: _TABLE.conditional_log_prob([[1, 0], [0, 1]]), "single query assignment expected", id="table-one-row-2d"
        ),
        pytest.param(lambda: _TABLE.sample(0, 0), "count must be >= 1", id="table-sample-0"),
        pytest.param(lambda: _TABLE.sample(2.5, 0), "count must be an integer, not 2.5", id="table-sample-2.5"),
        pytest.param(
            lambda: tabulate_conditional(make_oracle(generate_random_circuit(25, 1, 2, 0), QuerySpec(tuple(range(25))))),
            "|Q| = 25 exceeds tabulation cap 24",
            id="tabulate-25",
        ),
        pytest.param(lambda: superlevel_mass(_TABLE, 0.0), "epsilon must lie in (0, 1)", id="superlevel-0"),
        pytest.param(lambda: superlevel_mass(_TABLE, 1.0), "epsilon must lie in (0, 1)", id="superlevel-1"),
    ],
)
def test_inference_refusals(call, match):
    with pytest.raises(ValueError, match=re.escape(match)) as err:
        call()
    assert type(err.value) is ValueError
