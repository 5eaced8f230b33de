import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacmap.baselines import arg_max_product, independent_map, max_product
from pacmap.circuit import (
    MARGINAL,
    circuit_from_pmf,
    generate_deterministic_circuit,
    generate_random_circuit,
    parse_circuit,
)
from pacmap.inference import (
    QuerySpec,
    TabularDistribution,
    ZeroEvidenceError,
    brute_force_map,
    make_oracle,
    tabulate_conditional,
)

FACTORIZED = parse_circuit(
    "spn v1\nvars 2\nleaf 0 bernoulli 0 0.7\nleaf 1 bernoulli 1 0.2\nprod 2 0 1\nroot 2\n"
)


def test_baselines_refuse_an_oracle_built_for_another_instance():
    c = generate_random_circuit(4, 2, 2, 1)
    s1 = QuerySpec((0, 1), {2: 0, 3: 1})
    s2 = QuerySpec((2, 3), {0: 1, 1: 1})
    twin = generate_random_circuit(4, 2, 2, 1)  # equal nodes, another object
    for baseline in (max_product, arg_max_product):
        for oracle in (make_oracle(c, s2), make_oracle(twin, s1)):
            with pytest.raises(ValueError, match="oracle was built for another circuit or query spec"):
                baseline(c, s1, oracle=oracle)
        # An equal spec is the same query.
        same = baseline(c, s1, oracle=make_oracle(c, QuerySpec((0, 1), {2: 0, 3: 1})))
        assert same.log_p_hat == baseline(c, s1).log_p_hat


def test_baselines_without_an_oracle_refuse_zero_evidence():
    c = circuit_from_pmf([0.0, 0.0, 1.0, 0.0])  # the one atom has x1 = 0
    for baseline in (max_product, arg_max_product):
        with pytest.raises(ZeroEvidenceError, match="evidence has probability zero under the circuit"):
            baseline(c, QuerySpec((0,), {1: 1}))


def test_independent_map_refuses_a_table():
    # It scores by full passes of the oracle's circuit, which a table lacks.
    with pytest.raises(ValueError, match="ConditionalOracle"):
        independent_map(TabularDistribution.from_probs([0.1, 0.2, 0.3, 0.4]))


def test_max_product_factorized():
    res = max_product(FACTORIZED, QuerySpec((0, 1)))
    assert res.q_hat.tolist() == [1, 0]
    assert res.log_p_hat == pytest.approx(math.log(0.7 * 0.8), rel=1e-12)
    assert (res.certificate, res.draws_used, res.oracle_calls) == (None, 0, 1)


def test_arg_max_product_factorized_matches_mp():
    mp = max_product(FACTORIZED, QuerySpec((0, 1)))
    amp = arg_max_product(FACTORIZED, QuerySpec((0, 1)))
    assert amp.q_hat.tolist() == mp.q_hat.tolist()
    assert amp.log_p_hat == mp.log_p_hat


def test_independent_map_factorized_is_exact():
    oracle = make_oracle(FACTORIZED, QuerySpec((0, 1)))
    res = independent_map(oracle)
    assert res.q_hat.tolist() == [1, 0]
    assert (res.certificate, res.draws_used, res.oracle_calls) == (None, 0, 2 * 2 + 1)


@pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2), (10, 3)])
def test_heuristics_exact_on_deterministic_circuits(n, seed):
    c = generate_deterministic_circuit(n, seed=seed)
    spec = QuerySpec(tuple(range(n)))
    table = tabulate_conditional(make_oracle(c, spec))
    bits, logp = brute_force_map(table)
    mp = max_product(c, spec)
    amp = arg_max_product(c, spec)
    assert mp.q_hat.tolist() == bits.tolist()
    assert amp.q_hat.tolist() == bits.tolist()
    assert mp.log_p_hat == pytest.approx(logp, rel=1e-9)
    assert amp.log_p_hat == pytest.approx(logp, rel=1e-9)


def test_heuristics_exact_on_deterministic_circuit_with_evidence():
    c = generate_deterministic_circuit(8, seed=9)
    spec = QuerySpec(tuple(range(6)), {6: 1, 7: 0})
    table = tabulate_conditional(make_oracle(c, spec))
    bits, logp = brute_force_map(table)
    for method in (max_product, arg_max_product):
        res = method(c, spec)
        assert res.log_p_hat == pytest.approx(logp, rel=1e-9)


@given(st.integers(0, 20_000))
@settings(max_examples=40, deadline=None)
def test_heuristics_never_exceed_the_mode(seed):
    c = generate_random_circuit(8, depth=2, fanout=2, seed=seed)
    spec = QuerySpec(tuple(range(8)))
    oracle = make_oracle(c, spec)
    _, log_pstar = brute_force_map(tabulate_conditional(oracle))
    tol = 1e-9 * abs(log_pstar)
    assert max_product(c, spec, oracle=oracle).log_p_hat <= log_pstar + tol
    assert arg_max_product(c, spec, oracle=oracle).log_p_hat <= log_pstar + tol


@given(st.integers(0, 20_000))
@settings(max_examples=40, deadline=None)
def test_amp_dominates_mp(seed):
    c = generate_random_circuit(10, depth=3, fanout=2, seed=seed)
    spec = QuerySpec(tuple(range(10)))
    oracle = make_oracle(c, spec)
    mp = max_product(c, spec, oracle=oracle)
    amp = arg_max_product(c, spec, oracle=oracle)
    assert amp.log_p_hat >= mp.log_p_hat - 1e-12


def test_independent_counterexample_table():
    # p(0,0)=0.4, p(1,0)=0.25, p(1,1)=0.35: per-variable marginals pick (1,0)
    # with mass 0.25 although the mode is (0,0) with 0.4.
    c = circuit_from_pmf([0.4, 0.0, 0.25, 0.35])
    oracle = make_oracle(c, QuerySpec((0, 1)))
    res = independent_map(oracle)
    assert res.q_hat.tolist() == [1, 0]
    assert math.exp(res.log_p_hat) == pytest.approx(0.25, rel=1e-9)
    bits, logp = brute_force_map(tabulate_conditional(oracle))
    assert bits.tolist() == [0, 0]
    assert math.exp(logp) == pytest.approx(0.4, rel=1e-9)


def test_independent_tie_breaks_to_zero():
    c = parse_circuit("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nroot 0\n")
    res = independent_map(make_oracle(c, QuerySpec((0,))))
    assert res.q_hat.tolist() == [0]


def test_leaf_tie_breaks_to_zero_in_mp():
    # A free leaf takes 1 only where theta > 0.5, an indicator its value, and
    # an evidence leaf its evidence.  In the last case amp scores (x0, x1) =
    # (1, 1) above (0, 0) unless x0 keeps its evidence 0; the mode is x1 = 0.
    one_leaf = "spn v1\nvars 1\nleaf 0 {}\nroot 0\n"
    evidence_leaf = (
        "spn v1\nvars 2\nleaf 0 bernoulli 0 0.9\nleaf 1 bernoulli 1 0.9\nprod 2 0 1\n"
        "leaf 3 indicator 0 0\nleaf 4 indicator 1 0\nprod 5 3 4\nsum 6 2:0.7 5:0.3\nroot 6\n"
    )
    cases = [
        (one_leaf.format("bernoulli 0 0.5"), QuerySpec((0,)), 0),
        (one_leaf.format(f"bernoulli 0 {float(np.nextafter(0.5, 1))!r}"), QuerySpec((0,)), 1),
        (one_leaf.format("bernoulli 0 0"), QuerySpec((0,)), 0),
        (one_leaf.format("bernoulli 0 1"), QuerySpec((0,)), 1),
        (one_leaf.format("indicator 0 1"), QuerySpec((0,)), 1),
        (one_leaf.format("indicator 0 0"), QuerySpec((0,)), 0),
        (evidence_leaf, QuerySpec((1,), {0: 0}), 0),
    ]
    for text, spec, expected in cases:
        for method in (max_product, arg_max_product):
            res = method(parse_circuit(text), spec)
            assert res.q_hat.tolist() == [expected], (text, method.__name__)


def test_sum_ties_keep_the_first_child_and_candidate():
    # (1, 0) and (0, 1) tie bit for bit in both circuits: the mirrored
    # products' terms are only swapped.  In `mirror` the two children's
    # weighted maxima tie too, and mp follows the first.  In `third` the
    # heavier third child leads mp to (1, 1), while amp's candidates (1, 0)
    # and (0, 1) tie above it and amp keeps the first.
    mirrored = (
        "spn v1\nvars 2\nleaf 0 bernoulli 0 0.9\nleaf 1 bernoulli 1 0.1\nprod 2 0 1\n"
        "leaf 3 bernoulli 0 0.1\nleaf 4 bernoulli 1 0.9\nprod 5 3 4\n"
    )
    mirror = parse_circuit(mirrored + "sum 6 2:0.5 5:0.5\nroot 6\n")
    third = parse_circuit(
        mirrored + "leaf 6 bernoulli 0 0.7\nleaf 7 bernoulli 1 0.7\nprod 8 6 7\nsum 9 2:0.25 5:0.25 8:0.5\nroot 9\n"
    )
    spec = QuerySpec((0, 1))
    for c, mp_bits in ((mirror, [1, 0]), (third, [1, 1])):
        oracle = make_oracle(c, spec)
        scores = oracle.log_prob_rows(np.array([[1, 0], [0, 1]], dtype=np.int8))
        assert scores[0] == scores[1]
        assert max_product(c, spec, oracle=oracle).q_hat.tolist() == mp_bits
        amp = arg_max_product(c, spec, oracle=oracle)
        assert amp.q_hat.tolist() == [1, 0]
        assert amp.log_p_hat == scores[0]


def test_results_cover_exactly_query_vars(small_circuits):
    c = small_circuits[(10, 4)]
    spec = QuerySpec((1, 5, 9), {0: 1, 2: 0}, (3, 4, 6, 7, 8))
    oracle = make_oracle(c, spec)
    for res in (
        max_product(c, spec, oracle=oracle),
        arg_max_product(c, spec, oracle=oracle),
        independent_map(oracle),
    ):
        assert res.q_hat.shape == (3,)
        assert res.log_p_hat > -np.inf


def test_baselines_score_the_bytes_of_the_scoring_plan(small_circuits):
    # The baselines score by full passes; the oracle's scoring plan must give
    # the same bytes, for ind's marginals as for every answer.
    c = small_circuits[(10, 4)]
    for spec in (QuerySpec((1, 5, 9), {0: 1, 2: 0}, (3, 4, 6, 7, 8)), QuerySpec(tuple(range(10)))):
        oracle = make_oracle(c, spec)
        for res in (max_product(c, spec, oracle), arg_max_product(c, spec, oracle), independent_map(oracle)):
            assert res.log_p_hat == oracle.conditional_log_prob(res.q_hat)
        nq = oracle.num_query
        rows = np.full((2 * nq, nq), MARGINAL, dtype=np.int8)
        rows[2 * np.arange(nq), np.arange(nq)] = 1
        rows[2 * np.arange(nq) + 1, np.arange(nq)] = 0
        marginals = oracle.log_prob_rows(rows)
        assert independent_map(oracle).q_hat.tolist() == (marginals[0::2] > marginals[1::2]).tolist()


def _best_time(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_runtime_scaling_mp_linear_amp_quadratic():
    configs = [(32, 3), (128, 5), (256, 5)]
    sizes, mp_times, amp_times = [], [], []
    for n, depth in configs:
        c = generate_random_circuit(n, depth=depth, fanout=2, seed=13)
        spec = QuerySpec(tuple(range(n)))
        oracle = make_oracle(c, spec)
        max_product(c, spec, oracle=oracle)  # warm
        sizes.append(len(c.nodes))
        mp_times.append(_best_time(lambda: max_product(c, spec, oracle=oracle)))
        amp_times.append(_best_time(lambda: arg_max_product(c, spec, oracle=oracle), repeats=1))
    mp_slope = np.polyfit(np.log(sizes), np.log(mp_times), 1)[0]
    amp_slope = np.polyfit(np.log(sizes), np.log(amp_times), 1)[0]
    assert mp_slope <= 1.2, f"mp slope {mp_slope:.2f} (sizes {sizes})"
    assert amp_slope <= 2.2, f"amp slope {amp_slope:.2f} (sizes {sizes})"


def _digest_instances(name):
    """(circuit, spec) pairs of one digest case."""
    if name.startswith("n"):
        n, seed = {"n16": (16, 101), "n32": (32, 202), "n64": (64, 303), "n256": (256, 404)}[name]
        c = generate_random_circuit(n, depth=3, fanout=2, seed=seed)
        out = []
        for share in (0.1, 0.25, 0.5):
            for trial in range(3):
                gen = np.random.default_rng([seed, int(share * 100), trial])
                query = np.sort(gen.permutation(n)[: round(share * n)])
                bits = gen.integers(0, 2, n)
                evidence = {v: int(bits[v]) for v in range(n) if v not in set(query.tolist())}
                out.append((c, QuerySpec(tuple(query.tolist()), evidence)))
        return out
    if name == "deterministic":
        return [(generate_deterministic_circuit(8, seed=9), QuerySpec((0, 2, 3, 5), {1: 1, 7: 0}, (4, 6)))]
    if name == "pmf":
        c = circuit_from_pmf(np.random.default_rng(5).dirichlet(np.full(16, 0.3)))
        return [(c, QuerySpec((0, 1, 2, 3))), (c, QuerySpec((1, 3), {0: 1}, (2,)))]
    return [(parse_circuit("spn v1\nvars 1\nleaf 0 bernoulli 0 0.5\nroot 0\n"), QuerySpec((0,)))]


# sha256 over q_hat bytes and repr(log_p_hat) of mp, then amp, on every
# instance of a case, recorded before the baselines ran on the compiled plan.
BASELINE_DIGESTS = {
    "n16": "571cc0877fa3872ae607fa1ea75a340fa8342b3f1fb2dc6e2dcbaf22e04ca4f8",
    "n32": "4b4e856f2b9a51dc0aaac2eb280e536cf09fd24c9c1f9d6fd95972cb5bbe9b80",
    "n64": "9b14596431d2994e64b7628bdc228dc1e04dc890663c92ccfbbcd40fa0bea74f",
    "n256": "71a88539d70a2d3ff76e4867dabe821cae851a9d498ea433c66013eef8e7fb8a",
    "deterministic": "03cab157c4f6b6520e8e39110c4d435883f03521d5c9d783d3653665138e73e5",
    "pmf": "08ed99c50116cebb39c0c1afc7a0268ffc013169da991366937e6cc699c0fbd4",
    "leaf-0.5": "89d5a798aeec3f79e78333155994c0282772f6e54c84dc28437f9e34206d18be",
}


@pytest.mark.parametrize("name", list(BASELINE_DIGESTS))
def test_baseline_answers_are_pinned(name):
    # Each case runs with a prebuilt oracle and without one, which scores
    # ln p(e) in the baseline's own pass; both give the same bytes.
    digests = {True: hashlib.sha256(), False: hashlib.sha256()}
    for c, spec in _digest_instances(name):
        oracle = make_oracle(c, spec)
        for method in (max_product, arg_max_product):
            for with_oracle, h in digests.items():
                res = method(c, spec, oracle=oracle if with_oracle else None)
                h.update(res.q_hat.tobytes())
                h.update(repr(res.log_p_hat).encode())
    assert [h.hexdigest() for h in digests.values()] == 2 * [BASELINE_DIGESTS[name]]
