"""Analysis helpers: evaluation metrics, perf-file diffs and sweeps.

Trace analysis (Perfetto export, text timelines, longest-span digests)
lives in :mod:`repro.obs`; the conversion entry points are re-exported
here so analysis scripts have one import surface.  The sweep observatory
(:mod:`repro.analysis.serve`) exposes a persisted
:class:`~repro.store.ResultStore` over HTTP and an offline ``query``
CLI — run ``python -m repro.analysis.serve --help``.
"""

import importlib

from .metrics import (
    cycles_per_operation,
    degradation,
    geometric_mean,
    harmonic_mean,
    overhead,
    percent,
    speedup,
    summarize,
)
from ..obs.export import chrome_trace, write_trace
from ..obs.timeline import longest_spans, render_timeline
from .sweep import best_point, expand_grid, run_sweep, sweep_table


#: Names re-exported lazily: ``python -m repro.analysis.serve`` and
#: ``python -m repro.analysis.bench_compare`` must not find their module
#: pre-imported (runpy would warn and execute a second copy).
_LAZY = {
    "DashboardData": "serve",
    "compare_bench_entries": "bench_compare",
    "compare_bench_files": "bench_compare",
    "format_comparison": "bench_compare",
    "regressions": "bench_compare",
}


def __getattr__(name):
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DashboardData",
    "best_point",
    "chrome_trace",
    "compare_bench_entries",
    "compare_bench_files",
    "cycles_per_operation",
    "degradation",
    "expand_grid",
    "format_comparison",
    "regressions",
    "geometric_mean",
    "harmonic_mean",
    "longest_spans",
    "overhead",
    "percent",
    "render_timeline",
    "run_sweep",
    "speedup",
    "summarize",
    "sweep_table",
    "write_trace",
]
