"""Compile-side cache speedup guard.

Runs the full 21-benchmark suite twice through a traced serial sweep
sharing one on-disk compile-artifact store: a cold pass (empty store,
every artifact built and written) and a warm pass (fresh in-process LRU,
every artifact replayed from disk).  Verifies the payloads are
byte-identical and that the warm pass actually hit (no silent rebuild),
then asserts the warm *compile phase* -- the worker-side ``compile``
phase spans, which wrap compiler construction, CME estimation, affinity
construction and proximity-table builds -- costs < 30% of the cold one.

The measured point is appended, in the schema-versioned bench envelope,
to ``BENCH_compile.json`` at the repository root and to
``benchmarks/history/compile.jsonl`` (``repro bench history|check``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_compile.py -q

``REPRO_BENCH_SCALE`` overrides the workload scale (default 0.4).
"""

from __future__ import annotations

import os
import platform
import tempfile
from pathlib import Path

from repro.compile import reset_compile_cache
from repro.exec import run_sweep, sweep_matrix, sweep_tracer
from repro.obs import append_bench, config_hash, package_version, phase_table
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import SUITE_ORDER

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
MAX_WARM_FRACTION = 0.30
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def _traced_sweep(cells):
    tracer = sweep_tracer(cells)
    result = run_sweep(cells, workers=1, tracer=tracer)
    return result, phase_table(tracer.spans)


def test_warm_compile_phase_is_under_thirty_percent_of_cold():
    with tempfile.TemporaryDirectory() as tmp:
        cells = sweep_matrix(
            SUITE_ORDER,
            DEFAULT_CONFIG,
            mappings=("la",),
            scales=(SCALE,),
            compile_cache_dir=str(Path(tmp) / "compile"),
        )
        reset_compile_cache()  # cold pass starts from an empty LRU
        cold, cold_phases = _traced_sweep(cells)
        reset_compile_cache()  # warm pass replays from disk, not memory
        warm, warm_phases = _traced_sweep(cells)
        reset_compile_cache()  # don't leak the tmp store to other tests

    # A phase-time claim is only meaningful if the work really was equal
    # and the warm pass really replayed instead of rebuilding.
    assert warm.payloads() == cold.payloads()
    cold_totals = cold.compile_cache_totals()
    warm_totals = warm.compile_cache_totals()
    assert cold_totals["stores"] > 0, "cold pass populated nothing"
    assert warm_totals["misses"] == 0, "warm pass rebuilt artifacts"
    assert warm_totals["hits"] > 0

    cold_compile = cold_phases["compile"].seconds
    warm_compile = warm_phases["compile"].seconds
    warm_fraction = warm_compile / cold_compile

    record = {
        "benchmark": "compile_cache_warm_vs_cold",
        "suite": f"{len(cells)} apps @ scale {SCALE}",
        "cold_compile_seconds": round(cold_compile, 3),
        "warm_compile_seconds": round(warm_compile, 3),
        "warm_fraction_of_cold": round(warm_fraction, 4),
        "max_warm_fraction": MAX_WARM_FRACTION,
        "cold_counters": cold_totals,
        "warm_counters": warm_totals,
        "manifest": {
            "config_hash": config_hash(DEFAULT_CONFIG),
            "version": package_version(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    metrics = {
        "warm_fraction_of_cold": {
            "value": warm_fraction, "direction": "lower",
        },
    }
    append_bench(BENCH_PATH, record, metrics=metrics)

    print(
        f"\ncompile phase: cold {cold_compile:.2f}s, "
        f"warm {warm_compile:.2f}s "
        f"({100 * warm_fraction:.1f}% of cold, "
        f"{warm_totals['hits']} artifact hit(s))"
    )

    assert warm_fraction < MAX_WARM_FRACTION, (
        f"warm compile phase took {100 * warm_fraction:.1f}% of cold "
        f"(ceiling: {100 * MAX_WARM_FRACTION:.0f}%)"
    )
