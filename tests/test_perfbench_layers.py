"""The benchmark's per-layer attribution still sees every layer it names.

``perfbench/layers.py`` wraps the simulator's entry points by name; a
renamed entry point makes its install fail, and a bypassed one leaves its
layer at zero calls.  This runs the tracer, read-only, around a few small
cells that reach every run-time layer: both mappings, observation on, and
a fault plan with a downed link and an offline bank.  Compile-side layers
are left out: earlier tests may have warmed the process-wide compile
cache, so their counts depend on test order.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.exec import run_sweep, sweep_matrix
from repro.sim.config import DEFAULT_CONFIG

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

RUNTIME_LAYERS = (
    "sim.trace", "memory.translation", "cache.l1_bulk", "sim.machine.access",
    "noc.transfer", "faults.route", "memory.mc", "obs",
)


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_runtime_layer_is_reached():
    layers = load_layers()
    cells = sweep_matrix(
        ["mxm", "nbf"], DEFAULT_CONFIG.shared_llc(),
        mappings=("default", "la"), scales=(0.1,), collect_obs=True,
        faults=("link:2,2->3,2:down", "bank:14:offline"),
    )
    with layers.LayerTracer() as tracer:
        assert len(tracer._patches) == len(layers.ENTRY_POINTS)
        result = run_sweep(cells, workers=1)
    assert not tracer._patches
    assert len(result.results) == len(cells)
    calls = tracer.calls
    assert [layer for layer in RUNTIME_LAYERS if not calls[layer]] == []
    # The fast engine settles every miss in the L1 cursor's one pass.
    assert calls["cache.access"] == 0
