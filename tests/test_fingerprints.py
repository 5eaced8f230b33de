"""Pinned answer fingerprints for every sampling solver.

Each digest is a sha256 over q_hat, log_p_hat, the certificate, draws_used,
oracle_calls and the trajectory points of one solver configuration on one
instance.  Draws come from counter-based streams, so the answer must not
depend on how the engine sizes its sample and score calls: the adaptive
solvers must give the pinned digest at every batch size.  The digests were
recorded before draw batches grew geometrically and before smooth_pac_map
sampled whole batches, the radius-2 ones before radius-1 balls were scored
incrementally; a change that moves any of them changes an answer.

The 17 smooth-* digests whose oracle_calls fell were re-pinned, for
oracle_calls only, when smooth_pac_map stopped rescoring a ball around the
centre it had last folded: with the skipped balls' rows credited back to
oracle_calls every old digest reproduced bit for bit, so q_hat, log_p_hat,
the certificate, draws_used and the trajectory did not move.
"""

import hashlib

import numpy as np
import pytest

from pacmap.circuit import MARGINAL, generate_deterministic_circuit, generate_random_circuit
from pacmap.inference import QuerySpec, TabularDistribution, make_oracle
from pacmap.rng import DrawStream
from pacmap.solvers import PacParams, budget_pac_map, hamming_ball, naive_map, pac_map, smooth_pac_map
from conftest import rat_spn

BATCH_SIZES = (1, 7, 100, 5000)
PARAMS = PacParams(0.01, 0.01)
CAP = 1500
BUDGET = 300


def _table(n, seed, alpha):
    return TabularDistribution.from_probs(np.random.default_rng(seed).dirichlet(np.full(2**n, alpha)))


INSTANCES = {
    "table-6": lambda: _table(6, 1, 0.1),
    "table-8": lambda: _table(8, 2, 0.5),
    "table-10": lambda: _table(10, 3, 1.0),
    "table-12-flat": lambda: _table(12, 4, 5.0),  # every adaptive run stops at the cap
    "circuit-16": lambda: make_oracle(
        generate_random_circuit(16, 3, 2, 101),
        QuerySpec((0, 3, 7, 9, 12), {1: 1, 4: 0, 10: 1, 15: 0}, (2, 5, 6, 8, 11, 13, 14)),
    ),
    "circuit-32": lambda: make_oracle(
        generate_random_circuit(32, 3, 2, 202),
        QuerySpec(
            tuple(range(0, 32, 3)),
            {1: 1, 4: 0, 7: 1},
            tuple(v for v in range(32) if v % 3 and v not in (1, 4, 7)),
        ),
    ),
    "deterministic": lambda: make_oracle(generate_deterministic_circuit(6, seed=2), QuerySpec((2, 3, 5), {0: 1}, (1, 4))),
}

# Adaptive configurations take (oracle, stream, batch_size, trajectory list).
ADAPTIVE = {
    "pac": lambda o, s, bs, pts: pac_map(o, PARAMS, cap=CAP, rng=s, batch_size=bs, trajectory=pts),
    "pac-warm": lambda o, s, bs, pts: pac_map(
        o, PARAMS, cap=CAP, warm=[np.zeros(o.num_query, dtype=np.int8)], rng=s, batch_size=bs, trajectory=pts
    ),
    "smooth-period": lambda o, s, bs, pts: smooth_pac_map(
        o, PARAMS, exploit_period=9, cap=CAP, rng=s, batch_size=bs, trajectory=pts
    ),
    "smooth-period-100": lambda o, s, bs, pts: smooth_pac_map(o, PARAMS, cap=CAP, rng=s, batch_size=bs, trajectory=pts),
    "smooth-eta": lambda o, s, bs, pts: smooth_pac_map(
        o, PARAMS, eta=0.1, cap=CAP, rng=s, batch_size=bs, trajectory=pts
    ),
    # Radius-2 balls are scored by the full folded pass, not the radius-1 path.
    "smooth-radius-2": lambda o, s, bs, pts: smooth_pac_map(
        o, PARAMS, radius=2, exploit_period=9, cap=CAP, rng=s, batch_size=bs, trajectory=pts
    ),
}
FIXED = {
    "budget": lambda o, s: budget_pac_map(o, BUDGET, warm=[np.ones(o.num_query, dtype=np.int8)], rng=s)[0],
    "naive": lambda o, s: naive_map(o, BUDGET, rng=s),
}


def fingerprint(sol, points) -> str:
    h = hashlib.sha256(sol.q_hat.tobytes())
    h.update(repr((sol.log_p_hat, sol.certificate, sol.draws_used, sol.oracle_calls)).encode())
    for point in points:
        h.update(repr(point).encode())
    return h.hexdigest()


DIGESTS = {
    ("table-6", "pac"): "fa9a6dac5266656f88c2349eb13c773f86af5cf68a89e8883af6ad4555239652",
    ("table-6", "pac-warm"): "aa208bc66ddcb96ae862243c598d564c7b0816f1d3143cabbd9e3bce60394715",
    ("table-6", "smooth-period"): "48cfc915b5a77ec104af652e8786fe99e8fecaeb8c712c1d88970c69f75dba2a",
    ("table-6", "smooth-period-100"): "fa9a6dac5266656f88c2349eb13c773f86af5cf68a89e8883af6ad4555239652",
    ("table-6", "smooth-eta"): "fa9a6dac5266656f88c2349eb13c773f86af5cf68a89e8883af6ad4555239652",
    ("table-6", "smooth-radius-2"): "66548b5090bbbe25bd5c13c53f3b39048653143fd2139988d0cc21d9695ddfdd",
    ("table-6", "budget"): "56e9044c0400b0d62043201f895252dbdb89da00458151c0a0e03f7df523d42e",
    ("table-6", "naive"): "f0b57a78eb2df3dcf85c1248384e50fed6676deab11311d3ed26ec82a54fdf72",
    ("table-8", "pac"): "1b04708e2b18478652dc92d7698bf410270aa879f08cc33ea2d7f8f920fe3945",
    ("table-8", "pac-warm"): "32398f4aa26e7806af88ce235cbd45fbd80a0df15958bfce2a027efc6ae830a2",
    ("table-8", "smooth-period"): "ba9aa701df0a8069599b2f915a4f20cf860e25e3edd802471a4b76e226e6fec1",
    ("table-8", "smooth-period-100"): "d262e35ca2fa4211ba252b466ef26458ba09890ffcc1fc82e4dc57a2b4fd466d",
    ("table-8", "smooth-eta"): "50c592dc13176136a575727225284b3e52829b313d637ba38987fe28daad3c1e",
    ("table-8", "smooth-radius-2"): "4e53841e89594dbf8e02e44c6830c1b4dddc874ea41716b78693d4cd124bec0d",
    ("table-8", "budget"): "5bc5a11a44deb861d212d5666db64862d4752ae3ce7273cb8d554c5a9aae58a7",
    ("table-8", "naive"): "5523e21812db366f9c01248dba27548b2cb5191de368e3b8fd3ddb669dff1e54",
    ("table-10", "pac"): "3a554a3b34c24ef667e58789179060dff7d95e6c4c01690c0009bedb2e7d7a03",
    ("table-10", "pac-warm"): "9134f52e8b1c2fb5c5a66eaf25480378e539a3ce0c399377002c3aec51b624ed",
    ("table-10", "smooth-period"): "f5a57fb27223a87859f580748566f371352d47f3634e83ef69e4a41dbf60e61e",
    ("table-10", "smooth-period-100"): "f355b37a28904eab3f551eac140e498b4078a5afae2b33530716105281153eed",
    ("table-10", "smooth-eta"): "083f56526394e4e6a7380dc098fcea678b7809dfa7128d3c13151a5d64233dd6",
    ("table-10", "smooth-radius-2"): "4251b6e1bba76da22977c8e2ae85ac0da48bf28d9fa3b474bbe6a7c446bcd13e",
    ("table-10", "budget"): "fa2437d106bb9ecf46c6d24faa052c736832f251306d22ac34a0e88d199cb465",
    ("table-10", "naive"): "debe8f4f65f4df5d1bfc3f7312784b63d1cadb3d0c16a24955163d47d225ec6a",
    ("table-12-flat", "pac"): "9c854d01746a19067e8259c5a63fcf1c2f92410da3c6bb4ef7559d89ff9a7636",
    ("table-12-flat", "pac-warm"): "f6d7c901691b2690e4b122e6c77ca4b173a4a24a5245d9ed099be827e83caffc",
    ("table-12-flat", "smooth-period"): "87409c3fedd1fc147775f5dfd6e2c58d9fa95c40893078ef2ca3bbf5b408984f",
    ("table-12-flat", "smooth-period-100"): "b7cc42ac3cd12227d8df94b4b485ac3b010e766214c25801d684dda09ce48b96",
    ("table-12-flat", "smooth-eta"): "a33076555ccc0fb753b5fd942a7d4a4015646b9be68b89778470ccee37c99835",
    ("table-12-flat", "smooth-radius-2"): "7df243530f4de1e2d465f2445a1d05942e2c2cbe257a1d01b53a35c3622be4c0",
    ("table-12-flat", "budget"): "9d1ccfa4e6567ba0dcf95a74b673be2a1e68dd221b3dc3ddbac7004b22975da0",
    ("table-12-flat", "naive"): "a865cac6460c36e9b562ffd7faac4b5a44370520aea9f52cd83cad0cd53df6d8",
    ("circuit-16", "pac"): "43a49314db1a428823bd1c2305277897c18eafe41d3e10d574121b907f0b2446",
    ("circuit-16", "pac-warm"): "ca6b1cc3034f891b7d7970dd8b93eac2acd8f6a034d8d50e09972968a77369e4",
    ("circuit-16", "smooth-period"): "06b0f08897bb565c1ab47d2b911a1f9968aeda9e3077956861f139110971bd80",
    ("circuit-16", "smooth-period-100"): "43a49314db1a428823bd1c2305277897c18eafe41d3e10d574121b907f0b2446",
    ("circuit-16", "smooth-eta"): "8f122e09e2d82941af932298fcf233ee34767b83264b70dda227a288cfe71953",
    ("circuit-16", "smooth-radius-2"): "32bc260651a3d0cb58de5157f70521e3ab5070b7b2b2ab9fe3d089d5c7736d09",
    ("circuit-16", "budget"): "2ddefd085aa13ed9be17e4eb82b18d17b1257b2a64ba7cdd0cd7ad55e4540f61",
    ("circuit-16", "naive"): "74d8d77e76a0434318146e182cd1f238df6a0aa044e4c08296e8900607aa3f33",
    ("circuit-32", "pac"): "047b11610b1f9b27d754a7ffed08f73a9ebbcb7dc0d9332343b77eb803f87d66",
    ("circuit-32", "pac-warm"): "0ca3314eb753ae37bd26da65c8bf0a2fccf445e8a4fb3476e48c17389661c9b8",
    ("circuit-32", "smooth-period"): "4abb0933e1d70c373a62b922f03e452fd610958131762d59dfd63579a932d921",
    ("circuit-32", "smooth-period-100"): "9be4f9a2199ce982f389ab3223495bc40f2ae36d30cbd4e1fb65a70ebd49196e",
    ("circuit-32", "smooth-eta"): "e7c7712650355406e90c51a42ec617c8fbe60f2c0b01653bda8e2a26e69391da",
    ("circuit-32", "smooth-radius-2"): "6f640fa3e47b5c84c23850fc87ec7b5881c3903a3bd14111dacd0eaaa3a95efa",
    ("circuit-32", "budget"): "060d1b22de3de4628905ec93da4e67c03c8daa48b7a6489cd4e950421b04877f",
    ("circuit-32", "naive"): "873b7d43c5b959744bff653212c1e330963c9faf418721e7683689776d8218ce",
    ("deterministic", "pac"): "978b5fbf8a0bcd37535dda1b195f546646f3350378d823a5c884e15227013078",
    ("deterministic", "pac-warm"): "4507e517afbebd8e343bb84189ff9836f1deac13d9617ec0c4cb88c773ea2d8f",
    ("deterministic", "smooth-period"): "978b5fbf8a0bcd37535dda1b195f546646f3350378d823a5c884e15227013078",
    ("deterministic", "smooth-period-100"): "978b5fbf8a0bcd37535dda1b195f546646f3350378d823a5c884e15227013078",
    ("deterministic", "smooth-eta"): "978b5fbf8a0bcd37535dda1b195f546646f3350378d823a5c884e15227013078",
    ("deterministic", "smooth-radius-2"): "978b5fbf8a0bcd37535dda1b195f546646f3350378d823a5c884e15227013078",
    ("deterministic", "budget"): "e615e6509005c03df3d624c1a6e87171bf70e508f145b5200456a9b0b0f0b5b5",
    ("deterministic", "naive"): "9b25fbf8129b66f5a31557e4cc52ccf36d1fcde84a954d6eceebc11963af710d",
}


@pytest.mark.parametrize("instance", list(INSTANCES))
def test_adaptive_answers_are_pinned_at_every_batch_size(instance):
    oracle = INSTANCES[instance]()
    for name, run in ADAPTIVE.items():
        for bs in BATCH_SIZES:
            points = []
            sol = run(oracle, DrawStream(17), bs, points)
            assert fingerprint(sol, points) == DIGESTS[instance, name], (name, bs)


@pytest.mark.parametrize("instance", list(INSTANCES))
def test_fixed_budget_answers_are_pinned(instance):
    oracle = INSTANCES[instance]()
    for name, run in FIXED.items():
        assert fingerprint(run(oracle, DrawStream(17)), []) == DIGESTS[instance, name], name


# -- scoring bytes ---------------------------------------------------------------

# The solver digests above would not notice a change to every score that
# left the argmax alone.  These pin the bytes of the oracle's scoring passes
# (the folded pass, with and without MARGINAL entries, and the radius-1 ball
# pass) and of the full plan's sum and max passes, in node-id order.  They
# were recorded before evaluation plans were packed.
def _score_instances():
    from test_inference import SHARED_CHILDREN

    return {
        "corpus-n64": (
            generate_random_circuit(64, 3, 2, 303),
            QuerySpec(
                tuple(range(0, 64, 4)), {v: v % 2 for v in range(1, 64, 4)}, tuple(v for v in range(64) if v % 4 > 1)
            ),
        ),
        # Share 0.1 of the stress circuit: every tenth variable is queried.
        "stress-n256": (
            generate_random_circuit(256, 3, 2, 404),
            QuerySpec(
                tuple(range(0, 256, 10)),
                {v: v % 3 % 2 for v in range(256) if v % 10 in (3, 7)},
                tuple(v for v in range(256) if v % 10 not in (0, 3, 7)),
            ),
        ),
        "shared-children": (SHARED_CHILDREN, QuerySpec((3, 0, 1), {2: 1})),
        # Evidence x0 = 1, x1 = 0 sends the indicators of x0 = 0 and x1 = 1 to -inf.
        "deterministic": (generate_deterministic_circuit(6, seed=2), QuerySpec((2, 3, 5), {0: 1, 1: 0}, (4,))),
    }


def _scores(circuit, spec) -> dict:
    oracle = make_oracle(circuit, spec)
    draws = oracle.sample(2000, DrawStream(31))
    gen = np.random.default_rng(37)
    partial = np.where(gen.random(draws.shape) < 0.3, MARGINAL, draws).astype(np.int8)
    # The evidence row, then 63 rows with draws filled in; MARGINAL elsewhere.
    rows = np.full((64, circuit.num_vars), MARGINAL, dtype=np.int8)
    rows[:, list(spec.evidence)] = list(spec.evidence.values())
    rows[1:, list(spec.query_vars)] = draws[:63]
    return {
        "draws": oracle.log_prob_rows(draws),
        "partial": oracle.log_prob_rows(partial),
        "ball": oracle.log_prob_rows(hamming_ball(draws[0], 1)),
        "log_forward": circuit.log_forward(rows),
        "max_forward": circuit.max_forward(rows),
    }


SCORE_DIGESTS = {
    ("corpus-n64", "draws"): "dd909fe2d31edce9a97ec1723ef359ec5ddfb0f633f686c8baa3230d9c2848d7",
    ("corpus-n64", "partial"): "38679093e22ca8141dea2dc6cf40937eba0bc40ed97ad30f5074d78ee44b3de0",
    ("corpus-n64", "ball"): "df17160ff81a662f9ec2ba234ce85f284b1f8595053d8e35b7060a13d90702f0",
    ("corpus-n64", "log_forward"): "c508cfa242582a5932f3a41ac4a5874d3fc77158e15f39f30cb13e65d246a8dc",
    ("corpus-n64", "max_forward"): "2f1099f6faf363e0e4881729b7cd9bc5237ba4efee678080a3f7aa48884a7a46",
    ("stress-n256", "draws"): "fed91bc2bd23ed82fce0e5bf268f3a3f66645ca5eb6f0afd67088329a9127eaf",
    ("stress-n256", "partial"): "a8e6acccccdc96a6ecafc358e21932539f75bd93ba231346c89b8a0aace9afb1",
    ("stress-n256", "ball"): "3b9d0d0b9273ae77f797ebef40c7cbcfa81f255c5eac5584886b1f38bc041c6d",
    ("stress-n256", "log_forward"): "e3bd8a7cf263a9486e29cf655c325c8c31c03cc825b630efbc8fe972b6cfde1e",
    ("stress-n256", "max_forward"): "0452c641342d3e58b3d3b8102d6d26c0f820423ac7c928465a81907171e9273f",
    ("shared-children", "draws"): "d2b02f4483fb87062b3ff6370feb91437a5e44f0c08aa6edb17f2251d6f6e358",
    ("shared-children", "partial"): "6a5f11ba625c40492b99f5b1197222f2c4d4f11272c64598022f9f17e3b6a904",
    ("shared-children", "ball"): "0cf1034bb5c43f59a59d035625926e6a6bdc4a61c1a11b76df402c3e7583481e",
    ("shared-children", "log_forward"): "dcdf4fd363c5c1908c828b4d4d66d8d6bcc77d32d22a3689312a1a986eff1bfe",
    ("shared-children", "max_forward"): "fc181e513ef2be23e9b81b87c4c0ceaf5b0cfa36ca5d9ea3390a3d9113a5b922",
    ("deterministic", "draws"): "6dbdcac19771111870837cd63433f33c7baa414b3a18340670bc88750f189a04",
    ("deterministic", "partial"): "0e0b22c186c22539af43dbd88d00cb4d76416cb751a9f680e622c84e51c2b1c3",
    ("deterministic", "ball"): "d2e34396ee12a0a5591546e48e8f172f7160a56cd8c095a5e6a55a203393f2c3",
    ("deterministic", "log_forward"): "ccfa63b9594f6b47103cdadd26cb7170e5e1170f7b164b4bd81df257957451b8",
    ("deterministic", "max_forward"): "2611236e9cd58c0c65f0f32c04a52ad800f8ce3a68bd5b1fec2301a180c7c530",
}


@pytest.mark.parametrize("instance", ["corpus-n64", "stress-n256", "shared-children", "deterministic"])
def test_scoring_bytes_are_pinned(instance):
    circuit, spec = _score_instances()[instance]
    for call, values in _scores(circuit, spec).items():
        assert values.dtype == np.float64
        assert hashlib.sha256(values.tobytes()).hexdigest() == SCORE_DIGESTS[instance, call], call


# -- a DAG-shaped circuit ----------------------------------------------------

# Every instance above but shared-children is a tree.  This RAT-SPN
# region-graph circuit (conftest.rat_spn) gives every input and non-root sum
# three parents; its solver digests, at every batch size, and its scoring
# digests were recorded with the instances above unchanged.
DAG_DIGESTS = {
    "pac": "7400b45a59c7ac56ab4d5f0f662944a0c360c2ae672129036e4c38ebf9bea6a5",
    "pac-warm": "37a0821ccf18fbcb26dc90d3b0a249ad6258412138e67d2ec72eb464a77b2a18",
    "smooth-period": "af9eac6adb066973b95915da7144dac50d82d70f7c23743fc0bf4002fcbe05bc",
    "smooth-period-100": "3cd6a3076c7dfa4fe3fce4c6d852829b617cafe62a01afd1a709e7b768fad7f3",
    "smooth-eta": "fc15e67b2358dc45b6e2ac8e7b309e2069227d872425d7cd4fdad99b2d0a3f86",
    "smooth-radius-2": "c80cdcb6102b18556ca470fda047950640e0992fb29f05cd7e4d684f6e68094d",
    "budget": "6d30cca37ce8aaf5235bc6f8602821c75b9d9fae369293e5764f399444495633",
    "naive": "a593e113ddd47e2107fc449eec09e93f99fe8300ea190d828deb5bdb9d5bd196",
    "draws": "2c151037665ce3828f48d85ff9c6a2eb79a74309135c8b8f4cc2934091db022a",
    "partial": "5217cb613d08f6052e77ac9c4d47732a55fa862a23ed16034ad45d979b3cd3c4",
    "ball": "d4fdf34927779cafd396adda4b4323306d0920f2bdf3431222b1d0382ea4987d",
    "log_forward": "6ca0392c0137495e22de738e01e745c79dae3854818870957276360f07efe35b",
    "max_forward": "3a339edefd5e72fecbd59b0429c9f3ad8e1e0f44007f5402bb13b025fbb5e3dd",
}


def test_dag_answers_and_scores_are_pinned():
    circuit = rat_spn(16, 3, 3, 2, 41)
    spec = QuerySpec(tuple(range(0, 16, 2)), {v: v // 2 % 2 for v in (1, 5, 9, 13)}, (3, 7, 11, 15))
    oracle = make_oracle(circuit, spec)
    for name, run in ADAPTIVE.items():
        for bs in BATCH_SIZES:
            points = []
            sol = run(oracle, DrawStream(17), bs, points)
            assert fingerprint(sol, points) == DAG_DIGESTS[name], (name, bs)
    for name, run in FIXED.items():
        assert fingerprint(run(oracle, DrawStream(17)), []) == DAG_DIGESTS[name], name
    for call, values in _scores(circuit, spec).items():
        assert hashlib.sha256(values.tobytes()).hexdigest() == DAG_DIGESTS[call], call
