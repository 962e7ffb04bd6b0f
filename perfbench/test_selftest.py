"""Self-test of the per-layer attribution.

A busy-wait planted in ``MemoryController.access`` doubles that layer's
self time; the tracer must put the added time in ``memory.mc`` and
nowhere else, and the layers must still cover the traced wall time.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import COVERAGE_TOLERANCE, LayerTracer, layer_report  # noqa: E402
from workloads import build_cells, cell_id  # noqa: E402

from repro.exec import run_sweep  # noqa: E402
from repro.memory.controller import MemoryController  # noqa: E402

CELLS = ("nbf[default]@private", "equake[default]@private")
"""Ideal-network cells whose memory controllers see the most traffic."""

OTHER_LAYER_SHARE = 0.25
"""No other layer may gain more than this share of the planted time."""

REPEATS = 3
"""Runs per side, alternated; each layer keeps its fastest run, which
filters out host noise that only ever adds time."""


def traced_sweep(cells):
    tracer = LayerTracer()
    with tracer:
        start = time.perf_counter()
        result = run_sweep(cells, workers=1)
        wall = time.perf_counter() - start
    return layer_report(tracer, wall, [r.seconds for r in result.results])


def slowed_access(original, waited):
    """``original`` followed by a busy-wait as long as the call took."""
    clock = time.perf_counter

    def slowed(self, addr, when):
        start = clock()
        ready = original(self, addr, when)
        took = clock() - start
        until = clock() + took
        while clock() < until:
            pass
        waited[0] += took
        return ready

    return slowed


def test_planted_slowdown_lands_in_memory_mc(monkeypatch):
    cells = [
        cell for cell in build_cells("ideal-net", seed=11)
        if cell_id(cell) in CELLS
    ]
    assert len(cells) == len(CELLS)
    traced_sweep(cells)  # warm-up: lazy imports and first-touch costs
    original = MemoryController.access
    waited = [0.0]
    planted = slowed_access(original, waited)
    runs = {"base": [], "slowed": []}
    for _ in range(REPEATS):
        for side, access in (("base", original), ("slowed", planted)):
            monkeypatch.setattr(MemoryController, "access", access)
            runs[side].append(traced_sweep(cells))
    fastest = {
        side: {
            layer: min(r["self_s"][layer] for r in reports)
            for layer in reports[0]["self_s"]
        }
        for side, reports in runs.items()
    }
    planted_s = waited[0] / REPEATS
    added = fastest["slowed"]["memory.mc"] - fastest["base"]["memory.mc"]
    assert added > 0.6 * planted_s, (added, planted_s, fastest)
    for layer, seconds in fastest["slowed"].items():
        if layer != "memory.mc":
            gained = seconds - fastest["base"][layer]
            assert gained < OTHER_LAYER_SHARE * added, (layer, gained, added)
    for report in runs["base"] + runs["slowed"]:
        assert abs(1.0 - report["coverage"]) <= COVERAGE_TOLERANCE, report
