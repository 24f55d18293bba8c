"""The four benchmark workloads, built from a seed through ``repro.api``.

Each workload is a list of :class:`~repro.api.Scenario` objects plus the
number of shards the sweep runner uses.  Every input the program sees is
derived from the benchmark's ``--seed``: the same seed gives the same
scenarios, and a different seed gives different input data of the same
size.  See ``README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.api import PlatformBuilder, Scenario
from repro.sw.gsm import FRAME_SAMPLES, PARAMETERS_PER_FRAME
from repro.wrapper.api import IO_ARRAY_WORDS


@dataclass
class Workload:
    """One named benchmark workload: the scenarios and how they are run."""

    name: str
    scenarios: List[Scenario]
    #: ``ExperimentRunner`` shards; 1 means one in-process ``run_scenario``.
    shards: int = 1
    #: Host seconds after which a sharded scenario counts as timed out.
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class ChurnReference:
    """Reference outcome of ``alloc_churn``, computed without simulating.

    ``alloc_churn`` attaches no checks of its own.  Its PEs return their
    shared-memory API call counts, which follow from the task's control
    flow alone; every allocation is freed.  Caches must not change either.
    """

    iterations: int
    gsm_frames: int

    def api_calls(self) -> int:
        """API calls one churn PE issues (arrays go in I/O-window chunks)."""
        def chunks(words: int) -> int:
            return -(-words // IO_ARRAY_WORDS)

        per_frame = (2                       # alloc input + output
                     + chunks(FRAME_SAMPLES)  # write_array input
                     + chunks(FRAME_SAMPLES)  # read_array input
                     + chunks(PARAMETERS_PER_FRAME)  # write_array output
                     + 2)                     # free input + output
        survivors = 0
        calls = per_frame * self.gsm_frames
        for iteration in range(self.iterations):
            calls += 2                       # alloc + scalar write
            if iteration % 3 == 2 and survivors:
                calls += 2 * chunks(8) + 1   # memcpy (read + write) + free
                survivors -= 1
            survivors += 1
        return calls + survivors             # free the survivors

    def allocations(self) -> int:
        """Allocations (and frees) one churn PE performs."""
        return 2 * self.gsm_frames + self.iterations

    def __call__(self, report) -> object:
        want = self.api_calls()
        for name, calls in report.results.items():
            if calls != want:
                return f"{name}: {calls} API calls, reference {want}"
        allocs = self.allocations() * len(report.results)
        made = sum(memory["total_allocations"]
                   for memory in report.memory_reports)
        freed = sum(memory["total_frees"] for memory in report.memory_reports)
        live = sum(memory["live_allocations"]
                   for memory in report.memory_reports)
        if (made, freed, live) != (allocs, allocs, 0):
            return (f"allocations {made}/frees {freed}/live {live}, "
                    f"reference {allocs}/{allocs}/0")
        return True


def _input_seed(workload: str, seed: int, index: int = 0) -> int:
    """Input seed of one scenario, derived from the benchmark seed."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(1, 1 << 30)


def _quadrant_mesh() -> dict:
    """8x8 mesh, 16 PEs and 4 memories: one PE cluster and one memory per
    quadrant, so PE ``i`` (striped onto memory ``i % 4``) never leaves its
    quadrant.  The same placement as the E11 PDES bench."""
    pe_nodes = []
    for pe in range(16):
        quadrant, slot = pe % 4, pe // 4
        row = (quadrant // 2) * 4 + 1 + slot // 2
        col = (quadrant % 2) * 4 + 1 + slot % 2
        pe_nodes.append(row * 8 + col)
    return dict(pe_nodes=tuple(pe_nodes), memory_nodes=(27, 31, 59, 63))


def gsm_bus(seed: int, small: bool = False) -> Workload:
    config = (PlatformBuilder().pes(8).wrapper_memories(1).shared_bus()
              .event_driven().build())
    input_seed = _input_seed("gsm_bus", seed)
    return Workload("gsm_bus", [Scenario(
        "gsm_bus", config, "gsm_encode",
        params={"frames": 1 if small else 8, "seed": input_seed},
        seed=input_seed)])


def stencil_mesh(seed: int, small: bool = False) -> Workload:
    config = (PlatformBuilder().pes(16).wrapper_memories(4)
              .mesh(8, 8, **_quadrant_mesh()).event_driven().build())
    input_seed = _input_seed("stencil_mesh", seed)
    return Workload("stencil_mesh", [Scenario(
        "stencil_mesh", config, "stencil",
        params={"size": 4 if small else 64, "seed": input_seed},
        seed=input_seed)])


def churn_cached(seed: int, small: bool = False) -> Workload:
    # L1 caches are built empty with the platform: every run starts cold.
    config = (PlatformBuilder().pes(4).wrapper_memories(2).crossbar()
              .l1_cache(policy="write_back").event_driven().build())
    iterations, frames = (6, 1) if small else (200, 2)
    input_seed = _input_seed("churn_cached", seed)
    return Workload("churn_cached", [Scenario(
        "churn_cached", config, "alloc_churn",
        params={"iterations": iterations, "gsm_frames": frames,
                "seed": input_seed},
        seed=input_seed,
        checks=(ChurnReference(iterations, frames),))])


def sweep_sharded(seed: int, small: bool = False) -> Workload:
    dma = (PlatformBuilder().pes(2).wrapper_memories(2).dma(2)
           .event_driven().build())
    irq = (PlatformBuilder().pes(2).wrapper_memories(1).irq_controller(4)
           .event_driven().build())
    points = 2 if small else 10
    scenarios = []
    for index in range(points):
        dma_seed = _input_seed("sweep_sharded.dma", seed, index)
        irq_seed = _input_seed("sweep_sharded.irq", seed, index)
        scenarios.append(Scenario(
            f"dma_memcpy[{index}]", dma, "dma_memcpy",
            params={"words": 64 if small else 1024, "mode": "dma",
                    "compute_cycles": 200, "seed": dma_seed},
            seed=dma_seed))
        scenarios.append(Scenario(
            f"stress_irq_handoff[{index}]", irq, "stress_irq_handoff",
            params={"words": 16 if small else 256, "seed": irq_seed},
            seed=irq_seed))
    return Workload("sweep_sharded", scenarios, shards=2, timeout_s=60.0)


_FACTORIES = {"gsm_bus": gsm_bus, "stencil_mesh": stencil_mesh,
              "churn_cached": churn_cached, "sweep_sharded": sweep_sharded}
NAMES = tuple(_FACTORIES)


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The workload ``name`` for benchmark seed ``seed`` (``small`` shrinks
    every input to smoke-test size)."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; use one of {NAMES}")
    return _FACTORIES[name](seed, small)
