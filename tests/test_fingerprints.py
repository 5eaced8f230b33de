"""Pinned answer fingerprints for every sampling solver.

Each digest is a sha256 over q_hat, log_p_hat, the certificate, draws_used,
oracle_calls and the trajectory points of one solver configuration on one
instance.  Draws come from counter-based streams, so the answer must not
depend on how the engine sizes its sample and score calls: the adaptive
solvers must give the pinned digest at every batch size.  The digests were
recorded before draw batches grew geometrically and before smooth_pac_map
sampled whole batches, the radius-2 ones before radius-1 balls were scored
incrementally; a change that moves any of them changes an answer.
"""

import hashlib

import numpy as np
import pytest

from pacmap.circuit import generate_deterministic_circuit, generate_random_circuit
from pacmap.inference import QuerySpec, TabularDistribution, make_oracle
from pacmap.rng import DrawStream
from pacmap.solvers import PacParams, budget_pac_map, naive_map, pac_map, smooth_pac_map

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
    ("table-8", "smooth-period"): "9d1ab05eda02a3c38226682ccd44d772b580578995775434eedf69f0e84ebc6a",
    ("table-8", "smooth-period-100"): "d262e35ca2fa4211ba252b466ef26458ba09890ffcc1fc82e4dc57a2b4fd466d",
    ("table-8", "smooth-eta"): "f3bd1979f011b1ded7943554b57589984b4dbf713fe0774fca14100219ddb56d",
    ("table-8", "smooth-radius-2"): "28efe40637d32a0344e3d35e030028ba0a90549f4f452dd7b0531ca445f3b101",
    ("table-8", "budget"): "5bc5a11a44deb861d212d5666db64862d4752ae3ce7273cb8d554c5a9aae58a7",
    ("table-8", "naive"): "5523e21812db366f9c01248dba27548b2cb5191de368e3b8fd3ddb669dff1e54",
    ("table-10", "pac"): "3a554a3b34c24ef667e58789179060dff7d95e6c4c01690c0009bedb2e7d7a03",
    ("table-10", "pac-warm"): "9134f52e8b1c2fb5c5a66eaf25480378e539a3ce0c399377002c3aec51b624ed",
    ("table-10", "smooth-period"): "857ac728d866e0ceba9e38f720e1f65eb7081afca49ba34c78cbb6fa27f7c517",
    ("table-10", "smooth-period-100"): "2698b65902107cc7957d18ed1503b8cf1f21f2311aad8d6dd1bd9aa93f950e9f",
    ("table-10", "smooth-eta"): "ba992916dc93f621ae00b7c118695b8f1654e716a53902625b2ffa40fd3017f4",
    ("table-10", "smooth-radius-2"): "7f4a4a543e92f58a6a371a90ae410a9862956cf32a8985316f49458c0301dc9b",
    ("table-10", "budget"): "fa2437d106bb9ecf46c6d24faa052c736832f251306d22ac34a0e88d199cb465",
    ("table-10", "naive"): "debe8f4f65f4df5d1bfc3f7312784b63d1cadb3d0c16a24955163d47d225ec6a",
    ("table-12-flat", "pac"): "9c854d01746a19067e8259c5a63fcf1c2f92410da3c6bb4ef7559d89ff9a7636",
    ("table-12-flat", "pac-warm"): "f6d7c901691b2690e4b122e6c77ca4b173a4a24a5245d9ed099be827e83caffc",
    ("table-12-flat", "smooth-period"): "fe64b1be1164a58a78ab2192b23ab5d4c00bf9783938e73eb35b5b414cee1a90",
    ("table-12-flat", "smooth-period-100"): "1f59693afbb192c6f714a1df88b766c356b6e624e5608574ac2a7af0e2df0a44",
    ("table-12-flat", "smooth-eta"): "20976be855eb9e04c9b0621f45409d95f581ad1c67812bf7a4b2a2b3342256b6",
    ("table-12-flat", "smooth-radius-2"): "ff84b19789fcf5289d2e5fccf906734d12a6672c7b4b086deef79abb6fba636d",
    ("table-12-flat", "budget"): "9d1ccfa4e6567ba0dcf95a74b673be2a1e68dd221b3dc3ddbac7004b22975da0",
    ("table-12-flat", "naive"): "a865cac6460c36e9b562ffd7faac4b5a44370520aea9f52cd83cad0cd53df6d8",
    ("circuit-16", "pac"): "43a49314db1a428823bd1c2305277897c18eafe41d3e10d574121b907f0b2446",
    ("circuit-16", "pac-warm"): "ca6b1cc3034f891b7d7970dd8b93eac2acd8f6a034d8d50e09972968a77369e4",
    ("circuit-16", "smooth-period"): "cdc10107f5889fcd6bacaea1611abf4f051218c98f92237a20fb4da70f4a0762",
    ("circuit-16", "smooth-period-100"): "43a49314db1a428823bd1c2305277897c18eafe41d3e10d574121b907f0b2446",
    ("circuit-16", "smooth-eta"): "8f122e09e2d82941af932298fcf233ee34767b83264b70dda227a288cfe71953",
    ("circuit-16", "smooth-radius-2"): "7cee5979ba5d56a8d97dab46c70fec32ebecfd31426a473be6186ee03c5f8ea7",
    ("circuit-16", "budget"): "2ddefd085aa13ed9be17e4eb82b18d17b1257b2a64ba7cdd0cd7ad55e4540f61",
    ("circuit-16", "naive"): "74d8d77e76a0434318146e182cd1f238df6a0aa044e4c08296e8900607aa3f33",
    ("circuit-32", "pac"): "047b11610b1f9b27d754a7ffed08f73a9ebbcb7dc0d9332343b77eb803f87d66",
    ("circuit-32", "pac-warm"): "0ca3314eb753ae37bd26da65c8bf0a2fccf445e8a4fb3476e48c17389661c9b8",
    ("circuit-32", "smooth-period"): "229e108a252443332bdbd10ad8752bcd3b2da4318bd5dc7fa02a541d8142fd84",
    ("circuit-32", "smooth-period-100"): "9d603a5a0c8a7610576d9ad343f60162d6aae96982c339805d014d6445b53a6a",
    ("circuit-32", "smooth-eta"): "ae944de12338f1bf6135b714506c13396e0f67a2c78d05a88e3ede9409db5e58",
    ("circuit-32", "smooth-radius-2"): "cc15dd686538cabb8b94996b6ef94d0682a6a0d1683e92eec64fb7e6b8f3f5e5",
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
