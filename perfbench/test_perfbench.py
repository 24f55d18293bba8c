"""Tests of the benchmark itself, at its smallest size."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import measure, workloads
from perfbench.run import ROOT, collect

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _file:
    SPEC = json.load(_file)


def _units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_reports_with_its_unit(name, trace):
    result, info = collect(name, seed=1, seconds=0, trace=trace,
                           small=True, min_repeats=2)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and info["fail_ratio"] == 0
    want = _units("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == want
    assert all(isinstance(metric["value"], float)
               for metric in result["metrics"].values())
    assert set(info) >= {"commit", "dirty", "python", "cores", "platform",
                         "seed"}


def injected_failure(report):
    return "injected failure"


def test_injected_failing_check_raises_fail_ratio(tmp_path):
    workload = workloads.build("sweep_sharded", seed=1, small=True)
    workload.scenarios[0] = dataclasses.replace(
        workload.scenarios[0], checks=(injected_failure,))
    result = measure.measure(workload, seconds=0, trace=False,
                             directory=str(tmp_path), min_repeats=1)
    # The warm-up and one timed repeat: one failing scenario in each.
    assert result.failed == 2
    assert result.attempted == 2 * len(workload.scenarios)
    assert any("injected failure" in failure for failure in result.failures)


def test_traced_layer_shares_sum_to_one():
    result, _ = collect("churn_cached", seed=1, seconds=0, trace=True,
                        small=True, min_repeats=2)
    shares = [metric["value"] for name, metric in result["metrics"].items()
              if name.endswith(".share")]
    assert len(shares) == 13
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gsm_bus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
