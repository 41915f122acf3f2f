"""Tests of the benchmark itself: seeded inputs, output checks, trace counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from fpfun import fp, problems  # noqa: E402
from fpfun.ideals import GradedLengthTable  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _load(workload: str, seed: int, tmp_path: Path):
    manifest_path = inputs.generate(workload, seed, tmp_path / f"{workload}-{seed}")
    manifest = json.loads(manifest_path.read_text())
    files = {
        e["problem"]: problems.load_problem_file(str(manifest_path.parent / f"{e['problem']}.json"))
        for e in manifest["tasks"]
    }
    return manifest, files


def _corrupt(table, degree=None):
    lengths = dict(table.lengths)
    j = sorted(lengths)[len(lengths) // 2] if degree is None else degree
    lengths[j] += 1
    return GradedLengthTable(table.n, table.p, lengths)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_regenerates_identical_inputs(workload, tmp_path):
    first = _files(inputs.generate(workload, 7, tmp_path / "a").parent)
    second = _files(inputs.generate(workload, 7, tmp_path / "b").parent)
    other = _files(inputs.generate(workload, 8, tmp_path / "c").parent)
    assert first == second
    assert first != other


def _task(tasks, name):
    return next(t for t in tasks if t.name == name)


def _spec(files, name):
    return files[name].to_problem()


def test_cubic_check_rejects_corrupted_entry(tmp_path):
    manifest, files = _load("cubic_groebner", 3, tmp_path)
    tasks = workloads.build_tasks(manifest, files)
    for name in ("fermat_p5/table/2", "fermat_p2/table/5"):
        task = _task(tasks, name)
        table = task.work(_spec(files, task.problem))
        assert task.check(table) is None
        assert task.check(_corrupt(table)) is not None


def test_monomial_check_rejects_corrupted_entry(tmp_path):
    manifest, files = _load("monomial_staircase", 3, tmp_path)
    tasks = workloads.build_tasks(manifest, files)
    for name in ("monomial_g05/table/2", "monomial_g15/table/1"):
        task = _task(tasks, name)
        table = task.work(_spec(files, task.problem))
        assert task.check(table) is None
        assert task.check(_corrupt(table)) is not None


def test_limit_eval_check_rejects_corrupted_entry(tmp_path):
    manifest, files = _load("limit_eval", 3, tmp_path)
    tasks = workloads.build_tasks(manifest, files)
    for problem in ("parameter23", "cusp", "weighted_plane"):
        task = _task(tasks, f"{problem}/tables")
        tables = task.work(_spec(files, problem))
        assert task.check(tables) is None
        for level in (3, len(tables) - 1):
            corrupted = list(tables)
            corrupted[level] = _corrupt(tables[level])
            assert task.check(corrupted) is not None


def test_monomial_oracle_matches_enumeration_oracle():
    # The brute-force level-0 staircase and the bracket-power formula agree
    # with fpfun's own enumeration oracle on a bracket power.
    from fpfun import Grading, MonomialIdeal, enumeration_oracle

    gens = [(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 2), (1, 3, 1)]
    weights = (1, 2, 3)
    level0 = workloads.staircase_level0(gens, weights)
    bracket = MonomialIdeal.from_exponents(tuple(4 * e for e in g) for g in gens)
    assert level0 == enumeration_oracle(MonomialIdeal.from_exponents(gens), Grading(weights))
    assert workloads.monomial_expected(level0, weights, 4) == enumeration_oracle(bracket, Grading(weights))


def _traced_counts(tasks, files) -> dict:
    specs = {name: pf.to_problem() for name, pf in files.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.counts = {}
        worker.run_pass(tasks, specs, "t0", fp, tracer)
    finally:
        tracer.uninstall()
    metrics = spans.pass_metrics(tracer, "t0/", tracer.counts)
    return {name: metrics[name] for name, unit in spans.METRICS if unit != "s" and name in metrics}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    manifest, files = _load(workload, 5, tmp_path)
    tasks = workloads.build_tasks(manifest, files)
    first = _traced_counts(tasks, files)
    second = _traced_counts(tasks, files)
    assert first == second
    assert first["ideals.graded_lengths.calls"] > 0
    if workload == "monomial_staircase":
        assert first["ideals.buchberger.calls"] == 0
        assert first["algebra.normal_form.calls"] == 0
    else:
        assert first["ideals.buchberger.calls"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "limit_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
