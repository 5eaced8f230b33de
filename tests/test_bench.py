import hashlib
import io
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacmap import bench
from pacmap.bench import (
    CORPUS,
    BenchConfig,
    BenchRecord,
    CSV_COLUMNS,
    draw_evidence,
    draw_instance,
    parse_bench_config,
    random_query_partition,
    rank_methods,
    render_summary,
    resolve_circuit,
    run_benchmark,
    write_records_csv,
)
from pacmap.circuit import circuit_from_pmf, evaluate_marginal
from pacmap.inference import ConditionalOracle, QuerySpec, ZeroEvidenceError, make_oracle
from pacmap.rng import DrawStream, derive_seed
from pacmap.solvers import PacParams
from conftest import masked_csv

GEN16 = CORPUS[0]


# -- partitioning -------------------------------------------------------------


def test_partition_half():
    spec = random_query_partition(10, 0.5, DrawStream(1))
    assert len(spec.query_vars) == 5
    assert spec.nuisance_vars == ()
    assert spec.evidence == {}


def test_partition_rounding():
    spec = random_query_partition(16, 0.10, DrawStream(2))
    assert len(spec.query_vars) == 2  # round(1.6)


def test_partition_deterministic():
    a = random_query_partition(12, 0.25, DrawStream(3))
    b = random_query_partition(12, 0.25, DrawStream(3))
    assert a.query_vars == b.query_vars


def test_partition_rejects_degenerate():
    with pytest.raises(ValueError):
        random_query_partition(10, 0.01, DrawStream(1))
    with pytest.raises(ValueError):
        random_query_partition(10, 0.99, DrawStream(1))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_partition_is_subset_without_replacement(seed):
    spec = random_query_partition(20, 0.25, DrawStream(seed))
    assert len(set(spec.query_vars)) == 5
    assert all(0 <= v < 20 for v in spec.query_vars)


# -- evidence -----------------------------------------------------------------


def test_model_evidence_always_has_support(small_circuits):
    c = small_circuits[(10, 4)]
    for seed in range(20):
        e_vars = (0, 3, 7)
        ev = draw_evidence(c, e_vars, "model", DrawStream(seed))
        spec = QuerySpec(tuple(v for v in range(10) if v not in e_vars), ev)
        make_oracle(c, spec)  # must not raise ZeroEvidenceError


def test_model_evidence_on_point_mass_matches_support():
    c = circuit_from_pmf([0.0, 0.0, 1.0, 0.0])  # support 10
    ev = draw_evidence(c, (0, 1), "model", DrawStream(5))
    assert ev == {0: 1, 1: 0}


def test_uniform_evidence_accepted_on_full_support(small_circuits):
    c = small_circuits[(8, 2)]
    ev = draw_evidence(c, (1, 2), "uniform", DrawStream(9))
    rest = [v for v in range(8) if v not in ev]
    assert evaluate_marginal(c, ev, rest) > -np.inf


@pytest.mark.parametrize("mode", ["model", "uniform"])
@pytest.mark.parametrize(
    "e_vars,match",
    [
        ((-1, 3), "evidence variable -1 out of range 0..7"),
        ((1, 3, 3), "evidence variable 3 given twice"),
        ((2, 99), "evidence variable 99 out of range 0..7"),
        ((8,), "evidence variable 8 out of range 0..7"),
        ((2.0, 3), "evidence variable must be an integer, not 2.0"),
    ],
)
def test_evidence_refuses_bad_variables_before_drawing(small_circuits, mode, e_vars, match):
    stream = DrawStream(3)
    with pytest.raises(ValueError, match=re.escape(match)) as err:
        draw_evidence(small_circuits[(8, 2)], e_vars, mode, stream)
    assert type(err.value) is ValueError
    assert stream.cursor == 0


# sha256 of the sorted evidence items of the corpus instances drawn as
# perfbench draws them at seed 1 (3 circuits x 3 shares x 10 trials),
# recorded when every draw built a fresh all-variable oracle.
CORPUS_EVIDENCE_DIGEST = "14b2fa38f814b08853f3be483b7f947c00642144c7a7838027357323f8f5c476"


def test_corpus_evidence_is_that_of_a_fresh_oracle_per_draw():
    digest = hashlib.sha256()
    for ci, ref in enumerate(CORPUS):
        _, c = resolve_circuit(ref)
        n = c.num_vars
        for pi, prop in enumerate((0.10, 0.25, 0.50)):
            for trial in range(10):
                base = derive_seed(1, ci, pi, trial)
                spec = draw_instance(c, prop, "model", base)
                e_vars = tuple(v for v in range(n) if v not in spec.query_vars)
                fresh = ConditionalOracle(c, QuerySpec(tuple(range(n)))).sample(1, derive_seed(base, "evidence"))[0]
                assert spec.evidence == {v: int(fresh[v]) for v in e_vars}
                digest.update(repr(sorted(spec.evidence.items())).encode())
    assert digest.hexdigest() == CORPUS_EVIDENCE_DIGEST


# -- ranking ------------------------------------------------------------------


def test_rank_competition_rule():
    assert rank_methods([0.5, 0.5, 0.3]) == [1, 1, 3]


def test_rank_all_equal():
    assert rank_methods([1.0, 1.0, 1.0]) == [1, 1, 1]


def test_rank_distinct_is_permutation():
    ranks = rank_methods([0.1, 0.9, 0.5, 0.7])
    assert sorted(ranks) == [1, 2, 3, 4]
    assert ranks == [4, 1, 3, 2]


# -- config -------------------------------------------------------------------


def test_parse_config_round_trip():
    text = (
        f"circuits = {GEN16}, other.spn\n"
        "query_proportions = 0.1, 0.5\n"
        "trials = 3\n"
        "methods = mp, amp\n"
        "epsilon = 0.05\n"
        "sample_cap = 1000\n"
        "seed = 9\n"
    )
    cfg = parse_bench_config(text)
    assert cfg.circuits == (GEN16, "other.spn")
    assert cfg.query_proportions == (0.1, 0.5)
    assert cfg.trials == 3 and cfg.methods == ("mp", "amp")
    assert cfg.epsilon == 0.05 and cfg.sample_cap == 1000 and cfg.seed == 9
    assert cfg.delta == 0.01  # defaults retained


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_bench_config("circuits = a\nbogus = 1\n")


@pytest.mark.parametrize(
    "text,match",
    [
        ("circuits = a\ntrials = abc\n", "config line 2: trials: invalid literal for int() with base 10: 'abc'"),
        ("circuits = a\n\nquery_proportions = 0.1, x\n", "config line 3: query_proportions: could not convert"),
        ("epsilon = small\n", "config line 1: epsilon: could not convert"),
        ("circuits =\n", "config line 1: circuits: needs at least one value"),
        ("circuits = a\nmethods = ,\n", "config line 2: methods: needs at least one value"),
        ("circuits = a\nquery_proportions =\n", "config line 2: query_proportions: needs at least one value"),
        ("circuits = a\ntrials = 2\n# a comment\ntrials = 3\n", "config line 4: duplicate key 'trials'"),
        ("circuits = a\ncircuits = b\n", "config line 2: duplicate key 'circuits'"),
        # The front end takes no batch size: the answer does not depend on it.
        ("circuits = a\nbatch_size = 500\n", "config line 2: unknown key 'batch_size'"),
    ],
)
def test_parse_config_value_errors_name_the_line(text, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        parse_bench_config(text)


def test_resolve_generator_spec_errors_name_the_key_and_spec():
    spec = "gen:n=16/depth=x/fanout=2/seed=1"
    with pytest.raises(ValueError, match=re.escape(f"generator spec {spec!r}: 'depth' takes an integer, got 'x'")):
        resolve_circuit(spec)
    with pytest.raises(ValueError, match=re.escape("missing ['seed']")):
        resolve_circuit("gen:n=16/depth=3/fanout=2")
    spec = "gen:n=8/depth=2/fanout=2/seed=1/sede=4"
    with pytest.raises(ValueError, match=re.escape(f"generator spec {spec!r}: unknown key 'sede'")):
        resolve_circuit(spec)
    spec = "gen:n=8/depth=2/fanout=2/seed=1/seed=4"
    with pytest.raises(ValueError, match=re.escape(f"generator spec {spec!r}: duplicate key 'seed'")):
        resolve_circuit(spec)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown methods"):
        BenchConfig(circuits=("a",), methods=("mp", "nope"))
    with pytest.raises(ValueError, match="at least one circuit"):
        BenchConfig(circuits=())
    for empty in ({"methods": ()}, {"query_proportions": ()}):
        with pytest.raises(ValueError, match="at least one method and one query proportion"):
            BenchConfig(circuits=("a",), **empty)
    for key in ("trials", "sample_cap", "exploit_period", "radius"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1$"):
            BenchConfig(circuits=("a",), **{key: 0})
    for bad in ({"epsilon": 1.5}, {"delta": 0.0}, {"epsilon": float("nan")}):
        with pytest.raises(ValueError, match=re.escape("epsilon and delta must lie strictly inside (0, 1)")):
            BenchConfig(circuits=("a",), **bad)
    for key, values in (("circuits", ("a", "b", "a")), ("methods", ("pac", "pac")), ("query_proportions", (0.1, 0.1))):
        with pytest.raises(ValueError, match=re.escape(f"{key} lists {values[-1]!r} twice")):
            BenchConfig(**{"circuits": ("a",), key: values})


def test_resolve_generator_spec():
    dataset, circuit = resolve_circuit(GEN16)
    assert dataset == GEN16
    assert circuit.num_vars == 16
    again = resolve_circuit(GEN16)[1]
    assert again.nodes == circuit.nodes


# -- running ------------------------------------------------------------------


def test_single_method_single_trial():
    cfg = BenchConfig(circuits=(GEN16,), query_proportions=(0.25,), trials=1, methods=("mp",), seed=4)
    records = run_benchmark(cfg)
    assert len(records) == 1
    r = records[0]
    assert r.method == "mp" and r.rank == 1
    assert r.log_p_hat is not None and r.log_p_hat <= 0.0
    assert r.timed_out is False


def _small_cfg(**overrides):
    base = dict(
        circuits=(GEN16, "gen:n=16/depth=2/fanout=2/seed=55"),
        query_proportions=(0.25, 0.5),
        trials=2,
        methods=("pac", "smooth", "budget", "naive", "mp", "amp", "ind"),
        sample_cap=2000,
        seed=7,
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_records_deterministic_apart_from_timing():
    first = masked_csv(_small_cfg())
    assert first == masked_csv(_small_cfg()) and len(first.splitlines()) == 1 + 2 * 2 * 2 * 7


def test_numpy_scalars_in_a_config_run_and_write_as_python_scalars():
    cfg = _small_cfg(trials=1, methods=("pac", "mp"), epsilon=0.05, seed=3)
    numpy_cfg = replace(cfg, seed=np.int64(3), query_proportions=tuple(np.linspace(0.25, 0.5, 2)), epsilon=np.float64(0.05))
    assert masked_csv(numpy_cfg) == masked_csv(cfg)


def test_csv_bytes_are_pinned():
    records = [
        BenchRecord(GEN16, 0, 0.25, "pac", -1.2345678901234567, 1, 12.3456, "pac", 0.01, 0.01, 1500, False),
        BenchRecord("d", 1, 0.5, "smooth", -0.1, 2, 1234.5, "budget", 0.01, 0.3, 5, True),
        BenchRecord("d", 1, 0.5, "mp", -0.5, 3, 0.00012345, "", None, None, 0, False),
        BenchRecord("d", 1, 0.5, "instance", None, None, 0.0, 'ValueError: bad "x", y', None, None, 0, False),
    ]
    buf = io.StringIO()
    write_records_csv(records, buf)
    assert buf.getvalue() == (
        "dataset,trial,query_prop,method,log_p_hat,rank,runtime_ms,cert,epsilon,delta,draws,timed_out\n"
        f"{GEN16},0,0.25,pac,-1.2345678901234567,1,12.3,pac,0.01,0.01,1500,false\n"
        "d,1,0.5,smooth,-0.1,2,1.23e+03,budget,0.01,0.3,5,true\n"
        "d,1,0.5,mp,-0.5,3,0.000123,,,,0,false\n"
        'd,1,0.5,instance,,,0,"ValueError: bad ""x"", y",,,0,false\n'
    )


def test_readme_states_the_bench_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert ",".join(CSV_COLUMNS) in readme.splitlines()
    listed = re.search(r"`BenchConfig` field names\s*\(([^)]*)\)", readme).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(BenchConfig)]


def test_csv_columns_and_shape():
    cfg = _small_cfg(trials=1, query_proportions=(0.5,), methods=("mp", "ind"))
    records = run_benchmark(cfg)
    buf = io.StringIO()
    write_records_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    assert all(line.count(",") == len(CSV_COLUMNS) - 1 for line in lines)


def test_timed_out_rows_carry_budget_cert():
    # tiny cap forces the adaptive solvers into budget certificates
    cfg = _small_cfg(trials=1, query_proportions=(0.5,), methods=("pac", "smooth"), sample_cap=5)
    records = run_benchmark(cfg)
    for r in records:
        assert r.timed_out is True
        assert r.cert == "budget"
        assert r.draws == 5
        assert r.delta is not None


def test_errored_rows_say_why(monkeypatch):
    # Share 0.01 leaves no query variable at n = 16, and smooth is made to
    # raise; mp still runs and is ranked alone.
    def refuse(inputs):
        raise ValueError("smooth failed")

    monkeypatch.setitem(bench.METHODS, "smooth", bench.Method(refuse, bench.METHODS["smooth"].reads))
    cfg = _small_cfg(trials=1, query_proportions=(0.01, 0.5), methods=("smooth", "mp"))
    records = run_benchmark(cfg)
    assert [(r.query_prop, r.method) for r in records] == 2 * [(0.01, "instance"), (0.5, "smooth"), (0.5, "mp")]
    for instance, smooth, mp in zip(records[::3], records[1::3], records[2::3]):
        assert instance.cert == "ValueError: proportion 0.01 leaves an empty query or evidence set for n=16"
        assert smooth.cert == "ValueError: smooth failed"
        assert instance.log_p_hat is smooth.log_p_hat is smooth.rank is None
        assert mp.rank == 1 and mp.log_p_hat is not None


class _Recorder:
    """A MethodInputs stand-in that records the fields read from it."""

    def __init__(self, inputs):
        self.inputs, self.read = inputs, set()

    def __getattr__(self, field):
        self.read.add(field)
        return getattr(self.inputs, field)


@pytest.mark.parametrize("name", list(bench.METHODS))
def test_each_method_reads_what_it_declares(name):
    # `reads` names the fields besides oracle and rng; the baselines draw
    # nothing, so they need not read rng.
    oracle = make_oracle(circuit_from_pmf([0.1, 0.2, 0.3, 0.4]), QuerySpec((0, 1)))
    inputs = bench.MethodInputs(
        oracle, PacParams(0.05, 0.05), cap=200, budget=64, exploit_period=10, radius=1, rng=DrawStream(3), trajectory=[]
    )
    recorder = _Recorder(inputs)
    bench.METHODS[name].run(recorder)
    assert recorder.read - {"rng"} == bench.METHODS[name].reads | {"oracle"}


def test_log_p_hat_reproducible_by_rescoring():
    cfg = _small_cfg(trials=1, query_proportions=(0.25,))
    records = run_benchmark(cfg)
    # every record's probability is a valid log-probability; solver rows are
    # re-checked end to end by rerunning the method with the same seeds
    again = run_benchmark(cfg)
    for a, b in zip(records, again):
        assert a.log_p_hat == b.log_p_hat


def test_summary_counts_ranked_highest():
    cfg = _small_cfg(trials=2, query_proportions=(0.25,), methods=("mp", "amp", "ind"))
    records = run_benchmark(cfg)
    summary = render_summary(records)
    assert "ranked highest" in summary
    assert "query proportion 0.25" in summary
    # amp dominates mp by construction, so mp can never be ranked strictly higher
    for ds in {r.dataset for r in records}:
        mp_rank = [r.rank for r in records if r.dataset == ds and r.method == "mp"]
        amp_rank = [r.rank for r in records if r.dataset == ds and r.method == "amp"]
        assert all(a <= m for a, m in zip(amp_rank, mp_rank))


def test_summary_bytes_are_pinned():
    # Datasets are listed in order of first record, ranked or not; methods in
    # order of first ranked record, so "ind" (never ranked) has no column; a
    # proportion with no ranked record still gets its block; ties count for
    # every tied method, and a missing cell reads nan.
    R = BenchRecord
    records = [
        R("b", 0, 0.5, "instance", cert="ValueError: no instance"),
        R("a", 0, 0.25, "pac", -1.0, 2),
        R("a", 0, 0.25, "mp", -0.5, 1),
        R("a", 0, 0.25, "ind", cert="ValueError: no answer"),
        R("a", 1, 0.25, "pac", -0.2, 1),
        R("a", 1, 0.25, "mp", -0.2, 1),
        R("a", 2, 0.25, "pac", -0.9, 2),
        R("a", 2, 0.25, "mp", -0.1, 1),
        R("b", 0, 0.25, "mp", -3.0, 2),
        R("b", 0, 0.25, "pac", -2.0, 1),
        R("a", 0, 0.5, "amp", -1.0, 1),
        R("a", 0, 0.5, "mp", -2.0, 2),
        R("b", 1, 0.5, "mp", -1.0, 1),
        R("c", 0, 0.1, "instance", cert="ValueError: no instance"),
        R(GEN16, 0, 0.5, "amp", -1.0, 1),
        R(GEN16, 0, 0.5, "pac", -1.0, 1),
    ]
    assert render_summary(records) == (
        "== query proportion 0.1 ==\n"
        "dataset                           pac       mp      amp\n"
        "ranked highest                      0        0        0\n"
        "\n"
        "== query proportion 0.25 ==\n"
        "dataset                           pac       mp      amp\n"
        "b                                1.00     2.00      nan\n"
        "a                                1.67     1.00      nan\n"
        "ranked highest                      1        1        0\n"
        "\n"
        "== query proportion 0.5 ==\n"
        "dataset                           pac       mp      amp\n"
        "b                                 nan     1.00      nan\n"
        "a                                 nan     2.00     1.00\n"
        f"{GEN16}     1.00      nan     1.00\n"
        "ranked highest                      1        1        2\n"
    )


# -- refusals -----------------------------------------------------------------


class _HighStream(DrawStream):
    """A stream whose every uniform is 0.75, so every uniform evidence bit is 0."""

    def uniform_block(self, count, width=1):
        return np.full((count, width), 0.75)


@pytest.mark.parametrize(
    "call,error,match",
    [
        pytest.param(
            lambda: BenchConfig(circuits=("c",), query_proportions=(1.0,)),
            ValueError,
            "query proportions must lie in (0, 1)",
            id="config-proportion",
        ),
        pytest.param(
            lambda: BenchConfig(circuits=("c",), evidence_mode="x"),
            ValueError,
            "evidence_mode must be 'model' or 'uniform'",
            id="config-evidence-mode",
        ),
        pytest.param(
            lambda: BenchConfig(circuits=("c",), trials=2.5),
            ValueError,
            "trials must be an integer, not 2.5",
            id="config-trials",
        ),
        pytest.param(
            lambda: BenchConfig(circuits=("c",), seed=0.5),
            ValueError,
            "seed must be an integer, not 0.5",
            id="config-seed",
        ),
        pytest.param(
            lambda: parse_bench_config("circuits\n"), ValueError, "config line 1: expected 'key = value'", id="config-line"
        ),
        pytest.param(
            lambda: random_query_partition(4, 0.0, 0), ValueError, "proportion must lie in (0, 1)", id="partition"
        ),
        pytest.param(
            lambda: draw_evidence(circuit_from_pmf([0.1, 0.2, 0.3, 0.4]), (0,), "x", 0),
            ValueError,
            "mode must be 'model' or 'uniform'",
            id="evidence-mode",
        ),
        # x0 is 1 in the one atom, and every draw asks for x0 = 0.
        pytest.param(
            lambda: draw_evidence(circuit_from_pmf([0.0, 0.0, 1.0, 0.0]), (0,), "uniform", _HighStream(0)),
            ZeroEvidenceError,
            "uniform evidence sampling exhausted 100 retries",
            id="evidence-retries",
        ),
        pytest.param(lambda: rank_methods([]), ValueError, "need at least one record to rank", id="rank-empty"),
    ],
)
def test_bench_refusals(call, error, match):
    with pytest.raises(error, match=re.escape(match)) as err:
        call()
    assert type(err.value) is error
