"""Repository benchmark: simulated cycles per host second, end to end and
split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload gsm_bus --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (means over the repeats that
fit in ``--seconds``); ``--trace 1`` prints the per-layer metrics of a
profiled run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the provenance of the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30.0


def _git(*args: str):
    completed = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                               text=True, timeout=30, check=False)
    return completed.stdout.strip() if completed.returncode == 0 else None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    """Where and how a result was measured."""
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count()
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": commit, "dirty": dirty,
            "python": platform.python_version(), "cores": cores,
            "platform": platform.platform()}


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def collect(workload_name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, min_repeats: int = 3):
    """Measure one workload; returns ``(result, provenance)``, where
    ``result`` is the final JSON object."""
    from perfbench import layers, measure, workloads

    work_dir = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(work_dir, exist_ok=True)
    directory = tempfile.mkdtemp(dir=work_dir)
    try:
        workload = workloads.build(workload_name, seed, small=small)
        measurement = measure.measure(workload, seconds=seconds, trace=trace,
                                      directory=directory,
                                      min_repeats=min_repeats)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(work_dir)
        except OSError:  # another run is still using it
            pass
    info = provenance(workload_name, seed, trace)
    info["repeats"] = len(measurement.repeats) + len(measurement.traced)
    info["fail_ratio"] = measurement.failed / measurement.attempted
    if measurement.repeats:
        info["replay_s"] = statistics.median(
            repeat.replay_s for repeat in measurement.repeats)
    info["failures"] = measurement.failures[:10]
    units = layers.unit_of if trace else measure.END_TO_END_UNITS.get
    try:
        if trace:
            values = measurement.per_layer()
            info["tracing_overhead"] = measurement.tracing_overhead()
        else:
            values = measurement.end_to_end()
            info["timings"] = measurement.spread()
    except (ValueError, ZeroDivisionError):
        if not measurement.failed:
            raise
        values = {}  # the failed runs left too few readings
    result = {"correct": measurement.failed == 0,
              "attempted": measurement.attempted,
              "failed": measurement.failed,
              "metrics": {name: {"value": value, "unit": units(name)}
                          for name, value in values.items()}}
    return result, info


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import measure
    from perfbench.workloads import NAMES

    args = _parse(argv, NAMES)
    result, info = collect(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(f"{args.workload}: seed {args.seed}, {info['repeats']} timed "
          f"repeats, {result['attempted']} scenario runs, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for name, summary in info.get("timings", {}).items():
        print(f"  {name + ' (median)':<36} {summary['median']:>16.6g} "
              f"{measure.END_TO_END_UNITS[name]}, interquartile range "
              f"{summary['iqr']:.6g}, best {summary['best']:.6g}, "
              f"{summary['repeats']} repeats")
    if "replay_s" in info:
        print(f"  {'replay_s':<36} {info['replay_s']:>16.6g} s")
    print(f"  {'fail_ratio':<36} {info['fail_ratio']:>16.6g} fraction")
    for failure in info["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
