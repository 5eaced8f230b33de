import argparse
import csv
import hashlib
import os
import re
import runpy
from pathlib import Path

import pytest

from pacmap.bench import CORPUS, METHODS, BenchConfig, resolve_circuit
from pacmap.circuit import circuit_from_pmf, save_circuit
from pacmap import cli
from pacmap.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
# Writes the circuit and query files of the 64-atom pmf with mode 0.104 over six query variables.
write_mode_problem = runpy.run_path(str(ROOT / "scripts" / "illustration.py"))["write_problem"]


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def problem_dir(tmp_path):
    """A 2-variable circuit file plus a full-query spec file."""
    circuit = circuit_from_pmf([0.4, 0.0, 0.25, 0.35])
    cpath = tmp_path / "toy.spn"
    save_circuit(circuit, cpath)
    qpath = tmp_path / "toy.query"
    qpath.write_text("Q 0\nQ 1\n", encoding="utf-8")
    return tmp_path, str(cpath), str(qpath)


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "pac"])  # missing required flags
    assert exc.value.code == 1


def test_unknown_method_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--circuit", "x", "--query", "y", "--method", "zen"])
    assert exc.value.code == 1


def test_solve_has_no_batch_size_flag(capsys):
    # pac and smooth give the same answer at every batch size, so solve runs
    # them at the solvers' default and takes no flag for it.
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--circuit", "x", "--query", "y", "--method", "pac", "--batch-size", "7"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --batch-size 7" in capsys.readouterr().err


def test_missing_circuit_file_exits_two(tmp_path):
    q = tmp_path / "q"
    q.write_text("Q 0\n")
    assert main(["solve", "--circuit", str(tmp_path / "nope.spn"), "--query", str(q), "--method", "mp"]) == 2


def test_malformed_circuit_exits_two(tmp_path):
    bad = tmp_path / "bad.spn"
    bad.write_text("spn v9\n")
    q = tmp_path / "q"
    q.write_text("Q 0\n")
    assert main(["solve", "--circuit", str(bad), "--query", str(q), "--method", "mp"]) == 2


def test_zero_evidence_exits_three(tmp_path):
    circuit = circuit_from_pmf([0.0, 0.0, 1.0, 0.0])
    cpath = tmp_path / "pm.spn"
    save_circuit(circuit, cpath)
    qpath = tmp_path / "pm.query"
    qpath.write_text("Q 0\nE 1 1\n", encoding="utf-8")  # support has var1 = 0
    assert main(["solve", "--circuit", str(cpath), "--query", str(qpath), "--method", "pac"]) == 3


@pytest.mark.parametrize("method", ["pac", "smooth", "budget", "naive", "mp", "amp", "ind"])
def test_solve_pac_machine_line(problem_dir, capsys, method):
    _, cpath, qpath = problem_dir
    budget = ["--budget", "64"] if method in ("budget", "naive") else []
    assert main(["solve", "--circuit", cpath, "--query", qpath, "--method", method, "--seed", "3", *budget]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("result ")][0]
    pairs = [kv.split("=", 1) for kv in line[len("result ") :].split(" ")]
    assert [key for key, _ in pairs] == [
        "method", "q", "log_p_hat", "cert", "epsilon", "delta", "draws", "oracle_calls", "wall_ms"
    ]
    fields = dict(pairs)
    assert fields["method"] == method
    assert fields["q"] in {"00", "01", "10", "11"}
    assert float(fields["log_p_hat"]) <= 0.0
    oracle_calls = int(fields["oracle_calls"])
    if method in ("mp", "amp", "ind"):
        # One re-scored answer; ind also scores two marginals per query variable.
        assert (fields["cert"], fields["epsilon"], fields["delta"], fields["draws"]) == ("", "", "", "0")
        assert oracle_calls == (5 if method == "ind" else 1)
    else:
        assert fields["cert"] in {"exact", "det-eps", "pac", "budget"}
        assert oracle_calls >= int(fields["draws"]) >= 1


@pytest.mark.parametrize("method,summary", [("pac", "with an exact certificate"), ("mp", "with no certificate")])
def test_solve_summary_names_the_certificate(problem_dir, capsys, method, summary):
    _, cpath, qpath = problem_dir
    assert main(["solve", "--circuit", cpath, "--query", qpath, "--method", method]) == 0
    assert summary in capsys.readouterr().out


def test_solve_baseline_and_warm_start(problem_dir, capsys):
    _, cpath, qpath = problem_dir
    assert main(["solve", "--circuit", cpath, "--query", qpath, "--method", "amp"]) == 0
    assert main(
        ["solve", "--circuit", cpath, "--query", qpath, "--method", "smooth", "--warm-from", "amp", "--seed", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "result method=smooth" in out


def test_warm_from_rejected_for_heuristics(problem_dir):
    _, cpath, qpath = problem_dir
    assert main(["solve", "--circuit", cpath, "--query", qpath, "--method", "mp", "--warm-from", "amp"]) == 2


@pytest.mark.parametrize("method", ["budget", "naive", "mp", "amp", "ind"])
def test_trajectory_rejected_for_methods_that_record_none(problem_dir, capsys, method):
    dirpath, cpath, qpath = problem_dir
    out_csv = dirpath / "traj.csv"
    budget = ["--budget", "64"] if method in ("budget", "naive") else []
    argv = ["solve", "--circuit", cpath, "--query", qpath, "--method", method, "--trajectory", str(out_csv), *budget]
    assert main(argv) == 2
    assert "--trajectory is not supported" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--method", "mp", "--trajectory", "traj.csv"], "--trajectory is not supported with method 'mp'"),
        (["--method", "mp", "--warm-from", "amp"], "--warm-from is not supported with method 'mp'"),
        (["--method", "pac", "--warm-from", "pac"], "--warm-from expects one of mp, amp, ind"),
        (["--method", "pac", "--warm-from", ""], "--warm-from expects one of mp, amp, ind"),
        (["--method", "pac", "--trajectory", ""], "--trajectory expects a file path, not an empty one"),
        (["--method", "smooth", "--trajectory", ""], "--trajectory expects a file path, not an empty one"),
        (["--method", "naive"], "--budget is required for method 'naive'"),
        (["--method", "pac", "--budget", "100"], "--budget is not supported with method 'pac'"),
        (["--method", "mp", "--budget", "100"], "--budget is not supported with method 'mp'"),
        # Every other flag a method does not read, set off its default.
        *[
            (["--method", method, flag, value, *(["--budget", "50"] if method in ("budget", "naive") else [])],
             f"{flag} is not supported with method {method!r}")
            for flags, methods in [
                ((("--epsilon", "0.5"), ("--delta", "0.5"), ("--cap", "7")),
                 ("budget", "naive", "mp", "amp", "ind")),
                ((("--period", "3"), ("--radius", "5")), ("pac", "budget", "naive", "mp", "amp", "ind")),
            ]
            for flag, value in flags
            for method in methods
        ],
        # A flag at its default passes, and the run goes on to read the circuit.
        (["--method", "mp", "--epsilon", "0.01"], "No such file or directory: 'nope.spn'"),
    ],
)
def test_solve_refuses_bad_flags_before_reading_the_circuit(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--circuit", "nope.spn", "--query", "nope.query", *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("method", ["pac", "smooth"])
def test_trajectory_written_for_adaptive_methods(problem_dir, capsys, method):
    dirpath, cpath, qpath = problem_dir
    out_csv = dirpath / "traj.csv"
    argv = ["solve", "--circuit", cpath, "--query", qpath, "--method", method, "--trajectory", str(out_csv)]
    assert main(argv) == 0
    rows = _csv_rows(out_csv)
    assert len(rows) >= 1
    assert list(rows[0].keys()) == ["m", "p_hat", "p_check", "miss_bound", "stop_time"]
    p_hats = [float(r["p_hat"]) for r in rows]
    assert all(a <= b + 1e-15 for a, b in zip(p_hats, p_hats[1:]))
    assert f"({len(rows)} points)" in capsys.readouterr().out


def test_solve_cap_defaults_to_bench_sample_cap():
    args = build_parser().parse_args(["solve", "--circuit", "c", "--query", "q", "--method", "pac"])
    assert args.cap == BenchConfig(circuits=("c",)).sample_cap == 10**6


def test_solve_budget_requires_budget(problem_dir):
    _, cpath, qpath = problem_dir
    assert main(["solve", "--circuit", cpath, "--query", qpath, "--method", "budget"]) == 2
    assert main(["solve", "--circuit", cpath, "--query", qpath, "--method", "budget", "--budget", "64"]) == 0


def test_validate_reports_structure(problem_dir, capsys, tmp_path):
    _, cpath, _ = problem_dir
    assert main(["validate", "--circuit", cpath]) == 0
    out = capsys.readouterr().out
    assert "smooth: yes" in out and "decomposable: yes" in out
    bad = tmp_path / "bad.spn"
    bad.write_text(
        "spn v1\nvars 2\nleaf 0 bernoulli 0 0.4\nleaf 1 bernoulli 1 0.6\nsum 2 0:0.5 1:0.5\nroot 2\n"
    )
    assert main(["validate", "--circuit", str(bad)]) == 0
    out = capsys.readouterr().out
    assert "smooth: no" in out and "smoothness" in out


def test_validate_reports_root_scope_coverage(tmp_path, capsys):
    # solve refuses this file, and validate says why instead of "no violations".
    path = tmp_path / "short.spn"
    path.write_text("spn v1\nvars 2\nleaf 0 bernoulli 0 0.3\nroot 0\n")
    assert main(["validate", "--circuit", str(path)]) == 0
    out = capsys.readouterr().out
    assert "smooth: yes" in out and "decomposable: yes" in out
    assert "violation: node 0: scope: root scope does not cover all declared variables" in out
    assert "no violations" not in out
    query = tmp_path / "q.txt"
    query.write_text("Q 0\nQ 1\n")
    assert main(["solve", "--circuit", str(path), "--query", str(query), "--method", "mp"]) == 2
    assert "root scope does not cover all declared variables" in capsys.readouterr().err


def test_solve_refuses_a_structure_violation_with_its_line(tmp_path, capsys):
    path = tmp_path / "mixed.spn"
    path.write_text("spn v1\nvars 2\nleaf 0 bernoulli 0 0.4\nleaf 1 bernoulli 1 0.6\nsum 2 0:0.5 1:0.5\nroot 2\n")
    query = tmp_path / "q.txt"
    query.write_text("Q 0\nQ 1\n")
    assert main(["solve", "--circuit", str(path), "--query", str(query), "--method", "mp"]) == 2
    assert "line 5: node 2: smoothness violation" in capsys.readouterr().err


def test_readme_cli_block_matches_the_parser():
    # The `## CLI` block of README.md lists every subcommand and flag, and
    # nothing else.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    names, documented = set(), set()
    for line in block.splitlines():
        if line.startswith("pacmap "):
            command = line.split()[1]
            names.add(command)
        documented |= {(command, flag) for flag in re.findall(r"--[a-z][a-z-]*", line.split("#", 1)[0])}
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        (name, flag)
        for name, sub in commands.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert names == set(commands)
    assert documented == parsed


def test_readme_flag_table_matches_what_each_method_reads():
    # README's table of `solve`'s method flags says, per flag and method,
    # what _FLAG_FIELDS and METHODS[m].reads let through: "yes" where the
    # method reads the flag's field, "required" for --budget where it does,
    # and nothing where solve refuses the flag.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Each method reads only some of `solve`'s flags:\n\n", 1)[1].split("\n\n", 1)[0]
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    documented = {
        (flag, method): cell
        for flags, *cells in rows
        for flag in re.findall(r"--[a-z-]+", flags)
        for group, cell in zip(header[1:], cells)
        for method in group.split(", ")
    }
    allowed = {}
    for dest, field in cli._FLAG_FIELDS.items():
        for method, entry in METHODS.items():
            mark = "required" if dest == "budget" else "yes"
            allowed[f"--{dest.replace('_', '-')}", method] = mark if field in entry.reads else ""
    assert documented == allowed


def test_oracle_command(tmp_path, capsys):
    cpath = tmp_path / "b7.spn"
    cpath.write_text("spn v1\nvars 1\nleaf 0 bernoulli 0 0.7\nroot 0\n")
    qpath = tmp_path / "q"
    qpath.write_text("Q 0\n")
    assert main(["oracle", "--circuit", str(cpath), "--query", str(qpath)]) == 0
    out = capsys.readouterr().out
    fields = dict(kv.split("=", 1) for kv in out.split())
    assert fields["q_star"] == "1"
    assert float(fields["p_star"]) == pytest.approx(0.7)
    assert float(fields["min_entropy_bits"]) == pytest.approx(0.5146, abs=1e-3)


def test_pareto_csv_monotone(problem_dir, capsys):
    dirpath, cpath, qpath = problem_dir
    out_csv = dirpath / "front.csv"
    assert main(
        ["pareto", "--circuit", cpath, "--query", qpath, "--budget", "40", "--grid", "25",
         "--seed", "5", "--out", str(out_csv)]
    ) == 0
    rows = _csv_rows(out_csv)
    deltas = [float(r["delta"]) for r in rows]
    if len(deltas) > 1:  # non-degenerate frontier
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("budget", ["200", "1"])  # an exact run, then a budget frontier
def test_pareto_refuses_a_bad_grid(problem_dir, capsys, budget):
    dirpath, cpath, qpath = problem_dir
    out_csv = dirpath / "front.csv"
    argv = ["pareto", "--circuit", cpath, "--query", qpath, "--budget", budget, "--out", str(out_csv)]
    assert main(argv + ["--grid", "0"]) == 2
    assert "grid must be >= 1" in capsys.readouterr().err
    assert not out_csv.exists()


def test_pac_trajectory_stop_time_anchor(tmp_path, capsys):
    # Once the mode 0.104 is the leading candidate the refreshed stop time is
    # ceil(0.99 * ln(100) / 0.104) = 44.
    cpath, qpath = write_mode_problem(tmp_path / "illu.csv")
    out_csv = tmp_path / "illu.csv"
    argv = ["solve", "--method", "pac", "--circuit", cpath, "--query", qpath, "--seed", "1", "--trajectory", str(out_csv)]
    assert main(argv) == 0
    rows = _csv_rows(out_csv)
    assert int(rows[-1]["stop_time"]) == 44
    assert float(rows[-1]["p_hat"]) == pytest.approx(0.104, rel=1e-9)


def test_pac_trajectory_stops_at_the_default_cap(tmp_path, monkeypatch, capsys):
    # A uniform pmf over 2^10 atoms: p_hat is about 1/1024 or less, so the
    # PAC stop lies thousands of draws out and 300 draws leave most atoms
    # unseen; the run stops at the cap.
    cpath, qpath, out_csv = tmp_path / "u.spn", tmp_path / "u.query", tmp_path / "u.csv"
    leaves = "".join(f"leaf {v} bernoulli {v} 0.5\n" for v in range(10))
    cpath.write_text(f"spn v1\nvars 10\n{leaves}prod 10 {' '.join(map(str, range(10)))}\nroot 10\n")
    qpath.write_text("".join(f"Q {v}\n" for v in range(10)))
    monkeypatch.setattr(BenchConfig, "sample_cap", 300)  # the class attribute solve reads its --cap default from
    argv = ["solve", "--method", "pac", "--circuit", str(cpath), "--query", str(qpath), "--trajectory", str(out_csv)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert " cert=budget " in out and " draws=300 " in out
    assert [int(r["m"]) for r in _csv_rows(out_csv)] == list(range(1, 301))


def test_pac_trajectory_bytes_are_pinned(tmp_path):
    # The CSV bytes a default pac run writes, seed and circuit fixed.
    cpath, qpath = write_mode_problem(tmp_path / "illu.csv")
    gpath, gquery = tmp_path / "g16.spn", tmp_path / "g16.query"
    save_circuit(resolve_circuit(CORPUS[0])[1], gpath)
    gquery.write_text("Q 0\nQ 3\nQ 5\nQ 9\nE 1 1\nE 2 0\n", encoding="utf-8")
    pinned = [
        (cpath, qpath, 1, "969b903fef99993b3969cbbbddb7dcf639a3b136605c6838e3c44a8a322cb356"),
        (str(gpath), str(gquery), 7, "ddd717d2074ada5493b25b28deb65448ae8c792430c099d4fac2e11f418e3ada"),
    ]
    for circuit, query, seed, digest in pinned:
        out_csv = tmp_path / f"traj-{seed}.csv"
        argv = ["solve", "--method", "pac", "--circuit", circuit, "--query", query, "--seed", str(seed)]
        assert main(argv + ["--trajectory", str(out_csv)]) == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest, (circuit, seed)


def test_bench_command_writes_csv(tmp_path, capsys):
    conf = tmp_path / "bench.conf"
    conf.write_text(
        "circuits = gen:n=16/depth=2/fanout=2/seed=3\n"
        "query_proportions = 0.25\n"
        "trials = 1\n"
        "methods = mp, amp, ind\n"
        "seed = 1\n"
    )
    out_csv = tmp_path / "records.csv"
    assert main(["bench", "--config", str(conf), "--out", str(out_csv)]) == 0
    rows = _csv_rows(out_csv)
    assert len(rows) == 3
    assert {r["method"] for r in rows} == {"mp", "amp", "ind"}
    out = capsys.readouterr().out
    assert "ranked highest" in out


@pytest.mark.parametrize("out", ["no/such/dir/out.csv", ".", "locked.csv"])
@pytest.mark.parametrize("command", ["solve", "pareto", "bench"])
def test_an_unusable_out_is_refused_before_anything_is_read(problem_dir, monkeypatch, capsys, command, out):
    # A missing directory, a directory, and an existing file that may not be
    # written are each refused (exit 2, naming the path) before the problem
    # or config is read or anything solved; no file is made or changed.
    dirpath, cpath, qpath = problem_dir
    (dirpath / "locked.csv").write_text("kept\n")
    (dirpath / "bench.conf").write_text("circuits = gen:n=16/depth=2/fanout=2/seed=3\n")
    access = os.access  # which grants root every write, so a stand-in denies locked.csv's
    monkeypatch.setattr(os, "access", lambda path, mode: Path(path).name != "locked.csv" and access(path, mode))
    calls = []
    monkeypatch.setattr(cli, "_load_oracle", lambda args: calls.append(args))
    monkeypatch.setattr(cli, "run_benchmark", lambda cfg: calls.append(cfg))
    path = str(dirpath / out)
    argv = {
        "solve": ["solve", "--circuit", cpath, "--query", qpath, "--method", "pac", "--trajectory", path],
        "pareto": ["pareto", "--circuit", cpath, "--query", qpath, "--budget", "40", "--out", path],
        "bench": ["bench", "--config", str(dirpath / "bench.conf"), "--out", path],
    }[command]
    before = {p: p.is_file() and p.read_bytes() for p in dirpath.rglob("*")}
    assert main(argv) == 2
    assert path in capsys.readouterr().err
    assert calls == [] and {p: p.is_file() and p.read_bytes() for p in dirpath.rglob("*")} == before
