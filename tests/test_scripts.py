"""The experiment scripts run end to end and write what their docstrings say,
and README's library quick start runs as written."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pacmap.bench import CORPUS, DEFAULT_METHODS, BenchConfig, parse_bench_config, resolve_circuit
from pacmap.circuit import load_circuit, serialize_circuit

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == code, proc.stderr
    return proc


def test_make_corpus_files_reproduce_the_generator_instances(tmp_path):
    _run("make_corpus.py", "--outdir", str(tmp_path), "--cap", "2000")
    cfg = parse_bench_config((tmp_path / "bench.conf").read_text(encoding="utf-8"))
    assert cfg.methods == DEFAULT_METHODS == ("pac", "smooth", "mp", "amp", "ind")
    assert len(cfg.circuits) == len(CORPUS) and cfg == BenchConfig(cfg.circuits, sample_cap=2000, seed=20250810)
    for path, spec in zip(cfg.circuits, CORPUS):
        assert serialize_circuit(load_circuit(path)) == serialize_circuit(resolve_circuit(spec)[1]), path


def test_illustration_stops_at_44(tmp_path):
    out = tmp_path / "x.csv"
    _run("illustration.py", "--out", str(out))
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert int(rows[-1]["stop_time"]) == 44
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.query", "x.spn"]


@pytest.mark.parametrize("name", ["x.spn", "x.query"])
def test_illustration_refuses_an_out_named_like_its_problem_files(tmp_path, name):
    # The circuit and query files take --out's name with the suffixes .spn
    # and .query, so such an --out would be written over; nothing is written.
    out = tmp_path / name
    proc = _run("illustration.py", "--out", str(out), code=2)
    assert str(out) in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_quick_start_runs(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    code = section.split("\n## ", 1)[0].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()  # its last line prints the solution
