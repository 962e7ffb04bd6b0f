"""Tracing mirrors the executor equivalence guarantee.

Two claims, mirroring ``test_equivalence.py``:

* **Purity** -- tracing is pure observation: a traced sweep's payloads
  are ``==``-identical to an untraced sweep's, and traced/untraced runs
  share one cache (a traced run replays an untraced run's entries).
* **Determinism** -- the span *skeleton* (ids, scopes, names, parents --
  everything except wall-clock timestamps and pids) restricted to
  cell-key scopes is byte-identical across serial, 4-worker and
  cache-warm runs, and across reruns of the same manifest.

Phases are recorded once, as spans, so the sweep-wide phase table is a
fold over the coordinator tracer's spans; it must agree with the
in-process hubs of the same cells.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exec import (
    ResultCache,
    execute_cell,
    execute_cell_enveloped,
    run_sweep,
    sweep_matrix,
    sweep_tracer,
)
from repro.obs import EventStream, Telemetry, phase_table
from repro.obs.tracing import validate_trace_events
from repro.sim.config import DEFAULT_CONFIG

APPS = ("mxm", "nbf")
MAPPINGS = ("default", "la")
SCALE = 0.2


def _cells():
    return sweep_matrix(APPS, DEFAULT_CONFIG, mappings=MAPPINGS,
                        scales=(SCALE,))


def _cell_scopes():
    return {cell.key() for cell in _cells()}


def _traced_run(workers=1, cache=None):
    cells = _cells()
    tracer = sweep_tracer(cells)
    result = run_sweep(cells, workers=workers, tracer=tracer, cache=cache)
    return tracer, result


@pytest.fixture(scope="module")
def serial():
    """The traced serial reference."""
    return _traced_run(workers=1)


@pytest.fixture(scope="module")
def parallel():
    return _traced_run(workers=4)


def test_tracing_is_pure_observation(serial):
    untraced = run_sweep(_cells(), workers=1)
    _, traced = serial
    assert traced.payloads() == untraced.payloads()


def test_trace_id_derives_from_cell_keys(serial):
    tracer, _ = serial
    assert tracer.context.trace_id == sweep_tracer(_cells()).context.trace_id
    other = sweep_matrix(("mxm",), DEFAULT_CONFIG, scales=(0.3,))
    assert tracer.context.trace_id != sweep_tracer(other).context.trace_id


def test_serial_rerun_skeleton_is_byte_identical(serial):
    tracer, _ = serial
    rerun, _ = _traced_run(workers=1)
    assert tracer.skeleton() == rerun.skeleton()


def test_parallel_matches_serial_skeleton(serial, parallel):
    serial_tracer, _ = serial
    parallel_tracer, _ = parallel
    scopes = _cell_scopes()
    assert (parallel_tracer.skeleton(scopes=scopes)
            == serial_tracer.skeleton(scopes=scopes))


def test_parallel_payloads_match_serial(serial, parallel):
    assert parallel[1].payloads() == serial[1].payloads()


def test_lifecycle_spans_present(parallel):
    tracer, result = parallel
    per_cell = len(_cells())
    assert len(tracer.of_name("sweep")) == 1
    assert len(tracer.of_name("submit")) == per_cell
    assert len(tracer.of_name("queue-wait")) == per_cell
    assert len(tracer.of_name("attempt")) == per_cell
    # Engine/mapper phases arrive as child spans from the workers.
    assert tracer.of_name("setup")
    # attempt spans parent to the sweep root
    root = tracer.of_name("sweep")[0]
    for span in tracer.of_name("attempt"):
        assert span.parent_id == root.span_id


def test_worker_phase_timers_merge_into_sweep_result(parallel):
    tracer, _ = parallel
    merged = phase_table(tracer.spans)
    assert merged, "traced sweeps must surface worker-side phase timers"
    for record in merged.values():
        assert record.calls >= 1
        assert record.seconds >= 0.0
    assert any(path.startswith("sim") for path in merged)
    phase_scopes = {span.scope for span in tracer.spans if span.cat == "phase"}
    assert _cell_scopes() <= phase_scopes


def test_worker_phase_table_matches_in_process_runs(serial):
    tracer, _ = serial
    phase_scopes = {span.scope for span in tracer.spans if span.cat == "phase"}
    assert phase_scopes <= _cell_scopes()
    local = {}
    for cell in _cells():
        telemetry = Telemetry(events=EventStream(level="off"))
        execute_cell(cell, telemetry=telemetry)
        for path, record in telemetry.phases.items():
            calls, _ = local.get(path, (0, record.depth))
            local[path] = (calls + record.calls, record.depth)
    worker = {
        path: (record.calls, record.depth)
        for path, record in phase_table(tracer.spans).items()
    }
    assert worker == local


def test_cache_warm_run_replays_with_cache_hit_spans(serial, tmp_path):
    cache_dir = tmp_path / "cache"
    cold_tracer, cold = _traced_run(
        workers=1, cache=ResultCache(str(cache_dir))
    )
    warm_tracer, warm = _traced_run(
        workers=1, cache=ResultCache(str(cache_dir))
    )
    assert warm.payloads() == serial[1].payloads()
    assert warm.cache_hits == len(_cells())
    hits = warm_tracer.of_name("cache-hit")
    assert len(hits) == len(_cells())
    assert all(span.instant for span in hits)
    # A cold traced run's cell skeleton matches the uncached serial one.
    scopes = _cell_scopes()
    assert (cold_tracer.skeleton(scopes=scopes)
            == serial[0].skeleton(scopes=scopes))


def test_traced_and_untraced_runs_share_one_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    untraced = run_sweep(_cells(), workers=1,
                         cache=ResultCache(str(cache_dir)))
    tracer, traced = _traced_run(
        workers=1, cache=ResultCache(str(cache_dir))
    )
    assert traced.cache_hits == len(_cells())
    assert traced.payloads() == untraced.payloads()


def test_exported_trace_is_schema_valid_and_merged(parallel):
    tracer, _ = parallel
    document = json.loads(tracer.to_trace_json())
    assert validate_trace_events(document) == []
    pids = {
        event["pid"]
        for event in document["traceEvents"]
        if event["ph"] != "M"
    }
    # Coordinator plus however many workers the pool actually used; on a
    # single-CPU machine the pool may still fork >= 1 worker.
    assert len(pids) >= 2


def test_untraced_sweep_carries_no_trace_plumbing():
    result = run_sweep(_cells(), workers=1)
    for cell_result in result.results:
        # The execution envelope records the pid for every path, but the
        # span sidecar only exists when a tracer is attached.
        assert cell_result.pid == os.getpid()
    envelope = execute_cell_enveloped(_cells()[0])
    assert set(envelope) == {"payload", "pid", "compile_cache"}
    assert result.worker_pids() == [os.getpid()]
