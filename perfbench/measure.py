"""Timed, checked repeats of one workload and the metrics they yield.

One *repeat* runs every scenario of the workload once, from workload
instantiation to the checked report, then replays it warm from a
:class:`~repro.api.ResultStore`.  A measurement repeats until its time
budget is spent and reports the mean host timings of the repeats.  Every
repeat is checked: the workload's reference checks must pass, every PE
must finish, and the simulated statistics must equal those of the first
repeat (the inputs are the same, so any difference is a simulator fault).
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import gc
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.api import ExperimentRunner, ResultStore, run_scenario
from repro.soc.platform import Platform

from .layers import LAYERS, report_counters, split_profile
from .workloads import Workload

#: Keys of host-time readings, which differ between repeats by nature.
_HOST_KEYS = frozenset({"wallclock_seconds", "simulation_speed",
                        "host_seconds"})

END_TO_END_UNITS = {
    "sim_cycles_per_s": "cycles/s",
    "wall_s": "s",
    "setup_s": "s",
    "simulated_cycles": "cycles",
    "peak_rss_mb": "MB",
}


def _strip_host(value):
    """A copy of a report view without its host-time readings."""
    if isinstance(value, dict):
        return {key: _strip_host(item) for key, item in value.items()
                if key not in _HOST_KEYS}
    if isinstance(value, (list, tuple)):
        return [_strip_host(item) for item in value]
    return value


def simulated_stats(report) -> dict:
    """Every deterministic statistic of a report, results included."""
    view = _strip_host(report.as_dict())
    view["results"] = report.results
    return view


@contextlib.contextmanager
def _sim_start_marks():
    """Record the host time at which each platform is ready to simulate.

    ``Platform.run`` starts its simulate-phase clock right after
    ``prepare_run``; everything before that mark is set-up.
    """
    marks: List[float] = []
    original = Platform.prepare_run

    def prepare_run(self):
        simulator = original(self)
        marks.append(time.perf_counter())
        return simulator

    Platform.prepare_run = prepare_run
    try:
        yield marks
    finally:
        Platform.prepare_run = original


class _TimedStore:
    """Times the calls into one store's ``get`` and ``put``."""

    def __init__(self, store: ResultStore) -> None:
        self.get_s = 0.0
        self.put_s = 0.0
        for name in ("get", "put"):
            method = getattr(ResultStore, name).__get__(store)
            setattr(store, name, self._timed(name, method))

    def _timed(self, name, method):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                attr = f"{name}_s"
                setattr(self, attr, getattr(self, attr)
                        + time.perf_counter() - start)
        return call


@dataclasses.dataclass
class Repeat:
    """Readings of one repeat of a workload."""

    wall_s: float
    setup_s: float
    replay_s: float
    reports: list
    host_seconds: float
    store_stats: Dict[str, float]
    failures: List[str]
    #: Simulated cycles and simulate-phase host seconds, over the reports.
    cycles: int = 0
    sim_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.cycles = sum(report.simulated_cycles for report in self.reports)
        self.sim_seconds = sum(report.wallclock_seconds
                               for report in self.reports)


def _failures(result) -> List[str]:
    if result.timed_out:
        return [f"{result.scenario}: timed out"]
    if result.error is not None:
        return [f"{result.scenario}: {result.error}"]
    return [f"{result.scenario}: {failure}" for failure in result.failures]


def _replay(workload: Workload, store: ResultStore, cold) -> tuple:
    """Replay the workload warm from ``store``; returns the host seconds
    of the replay and its failures."""
    start = time.perf_counter()
    warm = ExperimentRunner(workload.scenarios, shards=workload.shards,
                            timeout_s=workload.timeout_s, store=store).run()
    seconds = time.perf_counter() - start
    failures = []
    for first, second in zip(cold, warm):
        if not second.cached:
            failures.append(f"{first.scenario}: warm pass re-simulated")
        elif (second.report is None or first.report is None
              or simulated_stats(second.report)
              != simulated_stats(first.report)):
            failures.append(f"{first.scenario}: replay differs from run")
    return seconds, failures


def _repeat_single(workload: Workload, store: ResultStore,
                   profile: Optional[cProfile.Profile]) -> Repeat:
    """One in-process ``run_scenario`` plus a warm replay from the store."""
    (scenario,) = workload.scenarios
    timed = _TimedStore(store)
    with _sim_start_marks() as marks:
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        result = run_scenario(scenario)
        wall = time.perf_counter() - start
        if profile is not None:
            profile.disable()
    failures = _failures(result)
    if len(marks) != 1:
        failures.append(f"{scenario.name}: no simulate phase was timed")
    setup = (marks[0] if marks else start) - start
    if result.report is not None:
        store.put(scenario.cache_key(), result, workload=scenario.workload_name)
    before = dict(store.stats)
    replay, replay_failures = _replay(workload, store, [result])
    failures += replay_failures
    return Repeat(
        wall_s=wall, setup_s=setup, replay_s=replay,
        reports=[result.report] if result.report is not None else [],
        host_seconds=result.host_seconds,
        store_stats={"hits": store.stats["hits"] - before["hits"],
                     "misses": store.stats["misses"] - before["misses"],
                     "get_s": timed.get_s, "put_s": timed.put_s},
        failures=failures)


def _repeat_sweep(workload: Workload, directory: str,
                  profile: Optional[cProfile.Profile]) -> Repeat:
    """A cold sharded sweep into a fresh store, then its warm replay."""
    path = os.path.join(tempfile.mkdtemp(dir=directory), "sweep.sqlite")
    start = time.perf_counter()
    store = ResultStore(path)
    for scenario in workload.scenarios:
        scenario.cache_key()
    setup = time.perf_counter() - start
    timed = _TimedStore(store)
    try:
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        cold = ExperimentRunner(workload.scenarios, shards=workload.shards,
                                timeout_s=workload.timeout_s,
                                store=store).run()
        wall = time.perf_counter() - start
        replay, replay_failures = _replay(workload, store, cold)
        stats = dict(store.stats)
        if profile is not None:
            profile.disable()
    finally:
        store.close()
        shutil.rmtree(os.path.dirname(path))
    failures = [failure for result in cold for failure in _failures(result)]
    failures += replay_failures
    return Repeat(
        wall_s=wall, setup_s=setup, replay_s=replay,
        reports=[result.report for result in cold if result.report is not None],
        host_seconds=sum(result.host_seconds for result in cold),
        store_stats={"hits": stats["hits"], "misses": stats["misses"],
                     "get_s": timed.get_s, "put_s": timed.put_s},
        failures=failures)


def _profile_scenarios(workload: Workload, profile: cProfile.Profile,
                       repeat: Repeat) -> None:
    """Profile the sweep's scenario bodies in this process.

    The sharded sweep simulates in worker processes, which the parent's
    profiler cannot see; this runs the same ``run_scenario`` calls here
    and checks them against the sharded results.
    """
    profile.enable()
    results = [run_scenario(scenario) for scenario in workload.scenarios]
    profile.disable()
    for result, report in zip(results, repeat.reports):
        repeat.failures += _failures(result)
        if (result.report is None
                or simulated_stats(result.report) != simulated_stats(report)):
            repeat.failures.append(
                f"{result.scenario}: in-process run differs from its shard")


class Measurement:
    """Repeats of one workload, with the failures found along the way."""

    def __init__(self, workload: Workload, directory: str) -> None:
        self.workload = workload
        self.directory = directory
        self.repeats: List[Repeat] = []
        self.traced: List[Repeat] = []
        self.layer_self_s: List[Dict[str, float]] = []
        self.layer_calls: List[Dict[str, int]] = []
        #: Report counters and simulated kilocycles of the first traced
        #: repeat.
        self.counters: Dict[str, float] = {}
        self.kcycles = 0.0
        #: Scenario runs attempted and failed, warm-up included.
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._baseline: Optional[list] = None
        self._store: Optional[ResultStore] = None
        self._profile: Optional[cProfile.Profile] = None
        #: Peak resident memory after the first (warm-up) repeat.
        self.peak_rss_mb = 0.0
        self._fork_hook = False

    def _stop_profile(self) -> None:
        if self._profile is not None:
            self._profile.disable()

    def run_once(self, traced: bool = False, keep: bool = True) -> Repeat:
        """Run one repeat and check it; keep its readings unless ``keep``
        is false (the warm-up)."""
        # Collect the previous repeat's platform first: its suspended
        # process generators would otherwise close (and count as calls)
        # whenever the collector happens to run inside this repeat.
        gc.collect()
        if traced and self.workload.shards > 1 and not self._fork_hook:
            # Forked sweep workers inherit the enabled profiler; stop it.
            os.register_at_fork(after_in_child=self._stop_profile)
            self._fork_hook = True
        profile = self._profile = cProfile.Profile() if traced else None
        try:
            if self.workload.shards > 1:
                repeat = _repeat_sweep(self.workload, self.directory, profile)
            else:
                if self._store is None:
                    self._store = ResultStore(
                        os.path.join(self.directory, "replay.sqlite"))
                repeat = _repeat_single(self.workload, self._store, profile)
        finally:
            self._profile = None
        self._check(repeat)
        if profile is not None:
            self_s, calls = split_profile(pstats.Stats(profile))
            if self.workload.shards > 1:
                # The workers' layers come from the same scenarios run in
                # this process.  The runner's scheduling loop wakes once
                # per worker message, a count host timing decides, so the
                # parent's api calls are left out.
                inner = cProfile.Profile()
                _profile_scenarios(self.workload, inner, repeat)
                inner_self_s, inner_calls = split_profile(pstats.Stats(inner))
                self_s = {layer: seconds + inner_self_s[layer]
                          for layer, seconds in self_s.items()}
                calls = {layer: inner_calls[layer]
                         + (count if layer != "api" else 0)
                         for layer, count in calls.items()}
            if self.layer_calls and calls != self.layer_calls[0]:
                repeat.failures.append(
                    "per-layer call counts differ between traced repeats")
            if not self.traced:
                self.counters = report_counters(repeat.reports)
                self.kcycles = repeat.cycles / 1000.0
            self.layer_self_s.append(self_s)
            self.layer_calls.append(calls)
            self.traced.append(repeat)
        elif keep:
            self.repeats.append(repeat)
        scenarios = len(self.workload.scenarios)
        self.attempted += scenarios
        # Failure messages start with the scenario's name.
        failing = {failure.split(":", 1)[0] for failure in repeat.failures}
        self.failed += min(len(failing), scenarios)
        self.failures.extend(repeat.failures)
        # Keep the readings, not the reports: a parent that grows with
        # every repeat forks its sweep workers ever more slowly.
        repeat.reports = []
        return repeat

    def _check(self, repeat: Repeat) -> None:
        stats = [simulated_stats(report) for report in repeat.reports]
        if len(stats) != len(self.workload.scenarios):
            return  # the missing reports already count as failures
        if self._baseline is None:
            self._baseline = stats
            return
        for scenario, first, now in zip(self.workload.scenarios,
                                        self._baseline, stats):
            if first != now:
                repeat.failures.append(
                    f"{scenario.name}: simulated statistics differ "
                    f"between repeats")

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    # -- metrics ---------------------------------------------------------------
    def _timings(self) -> Dict[str, List[float]]:
        """Host timings of the untraced repeats, by end-to-end metric."""
        repeats = self.repeats
        return {
            "sim_cycles_per_s": [r.cycles / r.sim_seconds
                                 for r in repeats if r.sim_seconds],
            "wall_s": [r.wall_s for r in repeats],
            "setup_s": [r.setup_s for r in repeats],
        }

    def end_to_end(self) -> Dict[str, float]:
        """End-to-end metrics over the untraced repeats.

        A host timing is the mean over the repeats.  A shared host can
        drop to half its speed for seconds at a time, and how much of a
        run it spends slow changes from minute to minute.  The median
        jumps to whichever state a run saw more of, and the best repeat
        depends on whether the host was fast at all; the mean moves only
        in proportion to the time spent slow.
        """
        metrics = {name: statistics.fmean(values)
                   for name, values in self._timings().items()}
        metrics["simulated_cycles"] = float(statistics.median(
            repeat.cycles for repeat in self.repeats))
        metrics["peak_rss_mb"] = self.peak_rss_mb
        return metrics

    def spread(self) -> Dict[str, Dict[str, float]]:
        """Median, interquartile range and best value of each host timing
        over the untraced repeats."""
        summary = {}
        for name, values in self._timings().items():
            low, _, high = (statistics.quantiles(values, n=4)
                            if len(values) > 1 else values * 3)
            best = max(values) if name == "sim_cycles_per_s" else min(values)
            summary[name] = {"median": statistics.median(values),
                             "iqr": high - low, "best": best,
                             "repeats": len(values)}
        return summary

    def per_layer(self) -> Dict[str, float]:
        """Layer metrics of the traced repeats (counters from the reports,
        timings of the store and runner from the untraced repeats)."""
        traced = len(self.layer_self_s)
        total = sum(sum(self_s.values()) for self_s in self.layer_self_s)
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            self_s = sum(entry[layer] for entry in self.layer_self_s)
            metrics[f"{layer}.self_s"] = self_s / traced
            metrics[f"{layer}.share"] = self_s / total
            metrics[f"{layer}.calls_per_kcycle"] = (
                self.layer_calls[0][layer] / self.kcycles)
        metrics.update(self.counters)
        repeats = self.repeats
        for key in ("hits", "misses"):
            metrics[f"store.{key}"] = float(repeats[0].store_stats[key])
        for key in ("get_s", "put_s"):
            metrics[f"store.{key}"] = statistics.median(
                r.store_stats[key] for r in repeats)
        metrics["store.replay_s"] = statistics.median(
            r.replay_s for r in repeats)
        metrics["api.shard_efficiency"] = statistics.median(
            r.host_seconds / (self.workload.shards * r.wall_s)
            for r in repeats)
        return metrics

    def tracing_overhead(self) -> float:
        """Traced ``wall_s`` over untraced ``wall_s`` (medians)."""
        return (statistics.median(r.wall_s for r in self.traced)
                / statistics.median(r.wall_s for r in self.repeats))


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its waited-for children."""
    peaks = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    scale = 1.0 if sys.platform == "darwin" else 1024.0  # bytes vs KiB
    return max(peaks) * scale / (1024.0 * 1024.0)


def measure(workload: Workload, *, seconds: float, trace: bool,
            directory: str, min_repeats: int = 3) -> Measurement:
    """Run ``workload`` repeatedly for about ``seconds`` host seconds.

    One untimed warm-up repeat goes first (imports and lazily built
    tables are paid once per process, not per run).  Untraced, every
    remaining repeat is timed.  Traced, the budget is split between
    untraced repeats (the baseline of the tracing overhead and the store
    timings) and profiled repeats.
    """
    measurement = Measurement(workload, directory)
    try:
        measurement.run_once(keep=False)
        measurement.peak_rss_mb = peak_rss_mb()
        plan = [(False, seconds)] if not trace else [
            (False, seconds / 2), (True, seconds / 2)]
        for traced, budget in plan:
            start = time.perf_counter()
            count = 0
            while count < min_repeats or time.perf_counter() - start < budget:
                measurement.run_once(traced)
                count += 1
    finally:
        measurement.close()
    return measurement
