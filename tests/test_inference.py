import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pacmap.circuit as circuit_module
import pacmap.inference as inference_module
from pacmap.baselines import arg_max_product, independent_map, max_product
from pacmap.circuit import (
    MARGINAL,
    BernoulliLeaf,
    Circuit,
    CircuitStructureError,
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
from pacmap.rng import DrawStream, counter_uniforms
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
}


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_folded_scoring_is_bit_identical_to_full_pass(case, monkeypatch):
    c, spec = FOLD_CASES[case]
    oracle = make_oracle(c, spec)
    n = oracle.num_query
    q_mask = sum(1 << v for v in spec.query_vars)
    live = [i for i, scope in enumerate(c.scopes) if scope & q_mask]
    assert oracle._plan.live.tolist() == live
    if case == "every node live":
        assert len(live) == len(c.nodes) and oracle._plan.consts.size == 0
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


def test_scoring_memory_is_one_chunk(monkeypatch):
    # Each chunk's scratch must be released once its result rows are copied
    # out, before the next chunk's is allocated: scoring keeps (plan rows x
    # chunk) float64 values; sampling keeps a bool matrix of reached nodes,
    # then per query column and draw a leaf slot, counter, uniform and theta,
    # which on this circuit outweigh the sum steps' scratch.  Two live
    # matrices put scoring's ratio near 1.6-1.7.
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", 1_600_000)
    c = generate_random_circuit(64, 3, 2, 303)
    oracle = make_oracle(c, HALF_QUERY)
    sample_bytes = oracle._active_rows + 1 + 8 + inference_module._LEAF_BYTES * oracle.num_query
    assert oracle._sample_row_bytes == sample_bytes
    for run, size, itemsize, width in (
        (c.log_root, len(c.nodes), 8, c.num_vars),
        (oracle.log_prob_rows, oracle._plan.size, 8, oracle.num_query),
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

    def descent(node):
        """The sum node's row of its op's cumulative table (a view)."""
        r = np.searchsorted(oracle._plan.live, node)
        for op, table in zip(oracle._plan.ops, oracle._descent):
            if r in op.ids:
                return table[0][int(np.flatnonzero(op.ids == r)[0])]

    assert np.isposinf(descent(9)).all()
    cum = descent(13)
    assert cum[0] == pytest.approx(4 / 7) and cum[1] == np.inf
    # A float cumsum can end below the node's mass, which leaves uniforms
    # past its last finite entry.
    cum[0] *= 0.5
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
    # One chunk draws every uniform of a sum op in one call, and every leaf
    # uniform in one more, however many nodes the descent reaches.
    oracle = make_oracle(generate_random_circuit(64, 3, 2, 303), HALF_QUERY)
    assert circuit_module._chunk_rows(oracle._sample_row_bytes, 1) >= 640
    calls = []

    def counted(seed, counters):
        calls.append(counters.size)
        return counter_uniforms(seed, counters)

    monkeypatch.setattr(inference_module, "counter_uniforms", counted)
    draws = oracle.sample(640, DrawStream(29))
    monkeypatch.undo()
    assert draws.tobytes() == oracle.sample(640, DrawStream(29)).tobytes()
    sum_ops = sum(op.logw is not None for op in oracle._plan.ops)
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
