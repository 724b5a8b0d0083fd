"""Smoke run of every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the repository root.  It checks the output contract of run.py
against BENCHMARK.json (metric names and units, untraced and traced), that
the gate passes, that two seeds give different inputs with the same
operation counts, and that the benchmark refuses to run without the package.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import harness  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.per_layer_names()
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, 1, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def _inputs(work):
    if work.name == "sweep":
        return [lam.tolist() for _, _, lam in work.inputs]
    if work.name == "oracle":
        return [spec[3].tolist() for spec in work.specs]
    if work.name == "dynamics":
        return [repr(spec[2].rates) for spec in work.specs]
    return [argv for _, argv, _ in work.calls]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_inputs_not_operation_counts(workload):
    first, second = (workloads.WORKLOADS[workload](seed, "tiny") for seed in (1, 2))
    again = workloads.WORKLOADS[workload](1, "tiny")
    for work in (first, second):
        work.warm_up()
    assert _inputs(first) != _inputs(second)
    assert _inputs(first) == _inputs(again)
    assert [cls for cls, _ in first.ops()] == [cls for cls, _ in second.ops()]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("sweep", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
