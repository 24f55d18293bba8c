"""Tests of the BENCH_kernel.json diff tool (repro.analysis.bench_compare)."""

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.analysis.bench_compare import (
    compare_bench_entries,
    compare_bench_files,
    format_comparison,
    main,
    regressions,
)
from repro.api.perf import SCHEMA


def write_bench(path, entries):
    payload = {"schema": SCHEMA, "count": len(entries), "entries": entries}
    path.write_text(json.dumps(payload))
    return str(path)


def entry(cps, wallclock=1.0):
    return {"cycles_per_second": cps, "wallclock_seconds": wallclock}


class TestCompare:
    def test_shared_added_removed_keys(self):
        rows = compare_bench_entries(
            {"e1/a": entry(100.0), "e1/gone": entry(50.0)},
            {"e1/a": entry(150.0), "e2/new": entry(70.0)},
        )
        by_key = {row["key"]: row for row in rows}
        assert set(by_key) == {"e1/a", "e1/gone", "e2/new"}
        assert by_key["e1/a"]["status"] == "both"
        assert by_key["e1/a"]["delta"] == pytest.approx(0.5)
        assert by_key["e1/gone"]["status"] == "removed"
        assert by_key["e1/gone"]["delta"] is None
        assert by_key["e2/new"]["status"] == "added"

    def test_rows_sorted_by_key(self):
        rows = compare_bench_entries(
            {"b/x": entry(1.0), "a/y": entry(1.0)},
            {"b/x": entry(1.0), "a/y": entry(1.0)},
        )
        assert [row["key"] for row in rows] == ["a/y", "b/x"]

    def test_custom_metric_and_missing_field(self):
        rows = compare_bench_entries(
            {"e/a": {"events_per_second": 10.0, "wallclock_seconds": 1.0}},
            {"e/a": {"wallclock_seconds": 2.0}},
            metric="events_per_second",
        )
        [row] = rows
        assert row["old"] == 10.0
        assert row["new"] is None
        assert row["delta"] is None

    def test_compare_files_round_trip(self, tmp_path):
        old = write_bench(tmp_path / "old.json",
                          {"e4/p4": entry(1000.0, 2.0)})
        new = write_bench(tmp_path / "new.json",
                          {"e4/p4": entry(800.0, 2.5)})
        [row] = compare_bench_files(old, new)
        assert row["delta"] == pytest.approx(-0.2)
        assert row["old_wallclock"] == 2.0
        assert row["new_wallclock"] == 2.5

    def test_missing_file_treated_as_empty(self, tmp_path):
        new = write_bench(tmp_path / "new.json", {"e/a": entry(5.0)})
        [row] = compare_bench_files(str(tmp_path / "absent.json"), new)
        assert row["status"] == "added"

    def test_regression_filter(self):
        rows = compare_bench_entries(
            {"a": entry(100.0), "b": entry(100.0), "c": entry(100.0)},
            {"a": entry(95.0), "b": entry(50.0), "c": entry(130.0)},
        )
        slow = regressions(rows, threshold=0.1)
        assert [row["key"] for row in slow] == ["b"]


class TestFormatting:
    def test_table_contains_rows_and_delta(self):
        rows = compare_bench_entries({"e/a": entry(100.0)},
                                     {"e/a": entry(150.0)})
        table = format_comparison(rows)
        assert "e/a" in table
        assert "+50.0%" in table

    def test_empty_comparison(self):
        assert "no bench entries" in format_comparison([])


class TestCli:
    def test_main_prints_table(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json", {"e/a": entry(100.0)})
        new = write_bench(tmp_path / "new.json", {"e/a": entry(110.0)})
        assert main([old, new]) == 0
        assert "+10.0%" in capsys.readouterr().out

    def test_main_fail_threshold(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json", {"e/a": entry(100.0)})
        new = write_bench(tmp_path / "new.json", {"e/a": entry(10.0)})
        assert main([old, new, "--fail-threshold", "0.5"]) == 1
        assert "regressions" in capsys.readouterr().out

    def test_main_threshold_pass(self, tmp_path):
        old = write_bench(tmp_path / "old.json", {"e/a": entry(100.0)})
        new = write_bench(tmp_path / "new.json", {"e/a": entry(99.0)})
        assert main([old, new, "--fail-threshold", "0.5"]) == 0


def test_module_entry_point_runs_without_runpy_warning(tmp_path):
    """``python -m`` must not find the module pre-imported by its package."""
    old = write_bench(tmp_path / "old.json", {"e/a": entry(100.0)})
    new = write_bench(tmp_path / "new.json", {"e/a": entry(99.0)})
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.analysis.bench_compare", old, new, "--fail-threshold", "0.9"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert "e/a" in result.stdout
