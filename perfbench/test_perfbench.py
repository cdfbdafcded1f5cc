"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT):
    """``perfbench/run.py`` of the tree at ``cwd``, as the benchmark is invoked."""
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_smoke_runs_every_kind_and_rejects_perturbed_outcomes():
    proc = _run("--smoke", "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("perfbench smoke ") == 3
    assert "FAILED" not in proc.stdout


def test_result_line_carries_exactly_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "small-many", "--seed", "5", "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] * 285 == result["attempted"] * 3  # faults (b) twice and (d) once a pass
        assert {m["name"]: m["unit"] for m in spec[key]} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "small-many", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
