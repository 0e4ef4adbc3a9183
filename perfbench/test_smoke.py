"""Smoke test of the benchmark itself: short runs of every workload and mode.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the result line's shape against BENCHMARK.json, that seeds
reproduce inputs, the tail rule, and that a directory without the package
fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_lists_match_the_code():
    import tracing

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.per_layer_metrics()
    )


@pytest.mark.parametrize("name", ["analysis-sweep", "receiver-long"])
def test_seed_fixes_the_inputs(name):
    import workloads

    cls = workloads.WORKLOADS[name]
    assert cls(7, ROOT, None).texts == cls(7, ROOT, None).texts
    assert cls(7, ROOT, None).texts != cls(8, ROOT, None).texts


def test_tail_keeps_ten_samples_above():
    value, pct, above = run.tail([float(i) for i in range(100)])
    assert (value, pct, above) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "analysis-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
