"""Self-test of the benchmark at a minimal size.

Run from the repository root::

    python3 -m pytest -q bench/test_selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    """Every workload, untraced and traced, on tiny corpora and budgets."""
    saved = dict(run.CORPUS_SIZE), dict(run.CLI_FILES), run.DEFAULT_CLI_FILES, run.PROBE_CALLS
    run.CORPUS_SIZE.update({w: 12 for w in run.WORKLOADS})
    run.CLI_FILES.update({w: 4 for w in run.CLI_FILES})
    run.DEFAULT_CLI_FILES = run.PROBE_CALLS = 2
    try:
        yield {(w, t): run.measure(w, seed=5, seconds=0.2, trace=t)
               for w in run.WORKLOADS for t in (False, True)}
    finally:
        run.CORPUS_SIZE.update(saved[0])
        run.CLI_FILES.update(saved[1])
        run.DEFAULT_CLI_FILES, run.PROBE_CALLS = saved[2], saved[3]


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_reported_with_its_unit(runs, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in run.WORKLOADS:
        result = runs[workload, trace]
        got = {name: m["unit"] for name, m in result.metrics.items()}
        assert got == want, workload
        line = run.result_line(result)
        assert line["correct"], result.violations
        assert line["attempted"] >= 1


def test_failures_count_distinct_cases(runs):
    """attempted and failed depend on the seed, not on the time budget."""
    for workload in run.WORKLOADS:
        plain, traced = (run.result_line(runs[workload, t]) for t in (False, True))
        assert plain["attempted"] == traced["attempted"] == run.CORPUS_SIZE[workload]
        assert plain["failed"] == traced["failed"], workload


def test_eigensolves_per_operation(runs):
    typeI = runs["typeI-random", True].metrics
    assert typeI["geigen.g_eigensystem.calls_per_op"]["value"] == 2.0
    typeII = runs["typeII-filtered", True].metrics
    assert typeII["geigen.g_eigensystem.calls_per_result"]["value"] == 4.0


def test_command_line_contract(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "typeI-random", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
