"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload must emit every metric BENCHMARK.json names, with its unit,
and no failed operation; the benchmark must refuse to run without the
program's sources, and refuse an enumerate input that is not a fan.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_clean(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = last_json(run(workload, 0))
    assert_clean(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = last_json(run(workload, 1))
    assert_clean(result, BENCH["per_layer"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("seed", [1, 2, 20260817])
def test_enumerate_inputs_move_with_the_seed(seed):
    """Every seed's lattice move and relabelling keeps the stored outputs."""
    assert last_json(run("enumerate", 0, seed=seed))["failed"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cli", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_enumerate_refuses_a_non_fan(monkeypatch):
    """One maximal cone inside another: set-up stops before any timing."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import worker
    import workloads

    tk = worker.import_toricgit(os.path.join(ROOT, "src"))
    non_fan = (2, [(1, 0), (0, 1), (1, 1), (-1, -1)], [[0, 1], [0, 2], [1, 3]], [(1, 1)])
    monkeypatch.setitem(workloads.ENUMERATE_CASES, "p3_1m10", non_fan)
    with pytest.raises(ValueError, match="not a fan"):
        workloads.Enumerate().build(tk, 1, {"enumerate": {}}, tiny=True)
