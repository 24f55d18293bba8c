"""Per-layer split of host time and the layers' own counters.

A layer is one ``repro.<package>``.  Host time comes from a cProfile run:
each profiled function's self time goes to the package its file lives in.
Functions outside ``repro`` (builtins such as ``list.append`` or
``sqlite3`` calls, and standard-library code such as ``pickle``) have no
layer of their own; their self time is split across their callers'
layers in proportion to the time each caller spent in them, through the
pstats caller data.  Time in the other ``repro`` packages, and time no
``repro`` caller accounts for, lands in ``other``, so the shares of all
layers sum to 1.

Counters come from the public :class:`~repro.soc.stats.SimulationReport`.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import repro

LAYERS = ("kernel", "fabric", "interconnect", "noc", "wrapper", "memory",
          "cache", "dev", "sw", "soc", "api", "store", "other")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

Func = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """Layer of a source file; ``""`` for code outside ``repro``."""
    if not filename.startswith(_REPRO_DIR):
        return ""
    package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def split_profile(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                                 Dict[str, int]]:
    """Self seconds and call counts per layer of one profile.

    Call counts are those of the layer's own Python functions (each
    generator resume counts as one call, as cProfile records it).
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    shares: Dict[Func, Dict[str, float]] = {}

    def attribution(func: Func, path: frozenset) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer:
            return {layer: 1.0}
        callers = table[func][4] if func in table else {}
        weights = {caller: entry[2] for caller, entry in callers.items()
                   if caller not in path}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()
                       if caller not in path}
            total = sum(weights.values())
        result: Dict[str, float] = defaultdict(float)
        if total <= 0:
            result["other"] = 1.0
        else:
            for caller, weight in weights.items():
                for name, part in attribution(caller, path | {func}).items():
                    result[name] += part * weight / total
        shares[func] = result
        return result

    self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        layer = layer_of(func[0])
        if layer:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for name, part in attribution(func, frozenset()).items():
            self_s[name] += tt * part
    return self_s, calls


def _sum(items: Iterable[float]) -> float:
    return float(sum(items))


def report_counters(reports: List) -> Dict[str, float]:
    """Layer counters summed over the workload's reports.

    Per-kcycle rates and utilisation are taken over the summed cycles.
    Percentiles are the largest of the reports' own percentiles.
    """
    kcycles = _sum(report.simulated_cycles for report in reports) / 1000.0
    kernel = [report.kernel_stats for report in reports]
    fabric = [report.interconnect_stats for report in reports]
    noc = [stats["noc"] for stats in fabric if "noc" in stats]
    pes = [pe for report in reports for pe in report.pe_reports]
    hosts = [memory.get("host_stats", {}) for report in reports
             for memory in report.memory_reports]
    caches = [cache for report in reports for cache in report.cache_reports]
    devices = [device for report in reports
               for device in report.device_reports]
    cache_lookups = _sum(cache["hits"] + cache["misses"] + cache["array_hits"]
                         + cache["array_misses"] for cache in caches)
    cache_hits = _sum(cache["hits"] + cache["array_hits"] for cache in caches)
    busy = _sum(stats.get("busy_cycles", 0) for stats in fabric)
    return {
        "kernel.events_per_kcycle":
            _sum(stats["events_fired"] for stats in kernel) / kcycles,
        "kernel.activations_per_kcycle":
            _sum(stats["process_activations"] for stats in kernel) / kcycles,
        "kernel.delta_cycles": _sum(stats["delta_cycles"] for stats in kernel),
        "kernel.timed_steps": _sum(stats["timed_steps"] for stats in kernel),
        "fabric.transactions": _sum(stats.get("transactions", 0)
                                    for stats in fabric),
        "fabric.busy_cycles": busy,
        "fabric.utilization": _sum(
            stats.get("utilization", 0.0) * report.simulated_cycles
            for stats, report in zip(fabric, reports)) / (kcycles * 1000.0),
        "fabric.latency_p95_cycles": float(max(
            (stats.get("latency_percentiles", {}).get("p95", 0)
             for stats in fabric), default=0)),
        "noc.packets": _sum(stats["packets"] for stats in noc),
        "noc.flits": _sum(stats["flits"] for stats in noc),
        "noc.average_hops": (
            _sum(stats["average_hops"] * stats["packets"] for stats in noc)
            / max(1.0, _sum(stats["packets"] for stats in noc))),
        "noc.latency_p95_cycles": float(max(
            (stats["latency_percentiles"].get("p95", 0) for stats in noc),
            default=0)),
        "noc.router_contention": _sum(
            _sum(stats["router_contention"].values()) for stats in noc),
        "wrapper.api_calls": _sum(pe.get("api_calls", 0) for pe in pes),
        "memory.alloc_calls": _sum(host.get("alloc_calls", 0)
                                   for host in hosts),
        "memory.free_calls": _sum(host.get("free_calls", 0) for host in hosts),
        "memory.peak_live_bytes": _sum(host.get("peak_live_bytes", 0)
                                       for host in hosts),
        "memory.native_reads": _sum(host.get("native_reads", 0)
                                    for host in hosts),
        "memory.native_writes": _sum(host.get("native_writes", 0)
                                     for host in hosts),
        "cache.hit_rate": cache_hits / cache_lookups if cache_lookups else 0.0,
        "cache.misses": _sum(cache["misses"] + cache["array_misses"]
                             for cache in caches),
        "cache.writebacks": _sum(cache["writebacks"] for cache in caches),
        "cache.invalidations_received": _sum(
            cache["invalidations_received"] for cache in caches),
        "dev.dma_words_copied": _sum(device.get("words_copied", 0)
                                     for device in devices
                                     if device.get("kind") == "dma"),
        "dev.irq_raises": _sum(device.get("raises", 0) for device in devices
                               if device.get("kind") == "irq_controller"),
    }


def unit_of(name: str) -> str:
    """Unit of the per-layer metric ``name`` (``<layer>.<metric>``)."""
    metric = name.split(".", 1)[1]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_kcycle"):
        return "calls/kcycle" if metric.startswith("calls") else "1/kcycle"
    if metric.endswith("_cycles") and metric != "delta_cycles":
        return "cycles"
    return {"share": "fraction", "utilization": "fraction",
            "hit_rate": "fraction", "shard_efficiency": "fraction",
            "average_hops": "hops", "peak_live_bytes": "bytes",
            "dma_words_copied": "words"}.get(metric, "count")
