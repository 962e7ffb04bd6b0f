"""Per-layer attribution from outside the program.

:class:`LayerTracer` wraps public entry points of the simulator's layers
with timers that keep a stack of open calls, so each layer's *self* time
excludes the time spent in the wrapped layers it calls.  Nothing inside
the program changes: the wrappers are installed on the classes and
modules before a sweep and removed after it.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Optional, Tuple

ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    # (layer, module, class or None for a module function, attribute)
    ("harness", "repro.experiments.harness", None, "run_workload"),
    ("sim.trace", "repro.sim.trace", "ProgramTrace", "set_trace"),
    ("cme", "repro.cme.equations", "CacheMissEstimator", "estimate_nest"),
    ("core.mapper", "repro.core.mapping", "Mapper", "assign"),
    # The pipeline calls the name it imported, so that is the one to wrap.
    ("core.affinity", "repro.core.pipeline", None, "build_set_affinity"),
    ("compile", "repro.compile.cache", "CompileCache", "get_or_build"),
    ("sim.engine", "repro.sim.engine", "ExecutionEngine", "run"),
    ("memory.translation", "repro.sim.machine", "Manycore", "translate_batch"),
    ("cache.l1_bulk", "repro.cache.hierarchy", "CacheHierarchy",
     "l1_bulk_cursor"),
    # The cursor does the bulk L1 work after l1_bulk_cursor returns it.
    ("cache.l1_bulk", "repro.cache.cache", "BulkAccessCursor", "consume_hits"),
    ("cache.access", "repro.cache.hierarchy", "CacheHierarchy", "access"),
    ("sim.machine.access", "repro.sim.machine", "Manycore", "access"),
    ("noc.transfer", "repro.noc.network", "BaseNetwork", "transfer"),
    ("faults.route", "repro.faults.degrade", "DegradedTopology", "route"),
    ("memory.mc", "repro.memory.controller", "MemoryController", "access"),
    ("obs", "repro.obs.spatial", "SpatialAccumulators", "record_bank_touches"),
    ("obs", "repro.obs.telemetry", "Histogram", "record"),
    ("obs", "repro.obs.events", "EventStream", "emit"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))

COVERAGE_TOLERANCE = 0.05
"""Layer self times plus executor overhead must sum to the traced sweep's
wall time within this share of it."""


class LayerTracer:
    """Stack-based self-time and call counters for :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, original):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self) -> "LayerTracer":
        for layer, module_name, class_name, attr in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                # The raw function from the class body, not a bound method.
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_report(tracer: LayerTracer, sweep_s: float,
                 cell_seconds: List[float]) -> Dict[str, object]:
    """The tracer's totals plus executor overhead and coverage.

    ``exec.overhead_s`` is the sweep's wall time minus the time its cells
    took; coverage is every layer's self time plus that overhead, over
    the wall time.
    """
    overhead = sweep_s - sum(cell_seconds)
    covered = sum(tracer.self_s.values()) + overhead
    return {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "exec_overhead_s": overhead,
        "coverage": covered / sweep_s if sweep_s > 0 else 0.0,
    }
