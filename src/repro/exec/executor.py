"""Sharded sweep executor: process-pool fan-out, memoization, crash retry.

``run_sweep`` takes a list of independent :class:`~repro.exec.cells.
SweepCell`\\ s and produces one payload per cell, with three guarantees the
equivalence suite (``tests/exec``) enforces:

* **Determinism** -- a cell's payload depends only on the cell, never on
  worker count, shard order, cache state, or which attempt succeeded.
  Every path (serial loop, pool worker, in-process fallback, cache
  replay) funnels through :func:`execute_cell`, which runs on the cell's
  ``seed``, and every payload is normalized through a JSON round-trip so
  replayed and freshly-computed results are literally ``==``.
* **Memoization** -- with a :class:`~repro.exec.cache.ResultCache`,
  completed cells are skipped on re-runs and resumed sweeps; duplicate
  cells within one sweep are computed once and shared.
* **Crash survival** -- a worker that raises, hard-exits (killing the
  pool), or hangs past ``cell_timeout`` triggers bounded retry with
  exponential backoff; a cell that exhausts its retries degrades to
  in-process execution in the coordinator, so one pathological cell slows
  the sweep down but cannot sink it.

Workers are forked (where the platform allows), so cells run against the
same interpreter state and ``sys.path`` as the coordinator; each worker
rebuilds its own workload/machine from the cell spec -- no live simulator
object ever crosses a process boundary.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import EventStream, Telemetry
from repro.obs.tracing import TraceContext, Tracer, derive_trace_id

from .cache import ResultCache
from .cells import SweepCell, resolve_workload

DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF_BASE = 0.05


class SweepError(RuntimeError):
    """A cell failed even after retries and the in-process fallback."""


# ----------------------------------------------------------------------
# Cell execution (runs in workers, the coordinator, and the serial path)
# ----------------------------------------------------------------------
def _cell_compile_cache(cell: SweepCell):
    """The process compile cache this cell runs against.

    A cell carrying ``compile_cache_dir`` attaches (or retargets) the
    process-wide cache's on-disk store, so artifacts persist across
    worker processes and sweeps; otherwise the cell shares whatever the
    process cache already is (memory-only by default).
    """
    from repro.compile import configure_compile_cache, get_compile_cache

    if cell.compile_cache_dir:
        return configure_compile_cache(cell.compile_cache_dir)
    return get_compile_cache()


def execute_cell(
    cell: SweepCell, telemetry: Optional[Telemetry] = None
) -> Dict[str, Any]:
    """Run one cell end to end; returns its JSON-normalized payload.

    Must stay a module-level function: it is the picklable entry point
    ``ProcessPoolExecutor`` ships to workers.

    ``telemetry`` optionally attaches an external hub (a traced cell's,
    carrying its span tracer).  The payload is a function of the cell
    alone: its ``obs`` section is gated on ``cell.collect_obs``, never on
    whether a hub happened to be attached, so traced and untraced
    executions of the same cell stay ``==``.
    """
    # Configure the process compile cache first: the harness's "auto"
    # resolution then picks up the cell's on-disk store (if any).
    _cell_compile_cache(cell)
    if cell.kind == "multiprog":
        from repro.experiments.multiprog import run_multiprogrammed

        bundle = [resolve_workload(name) for name in cell.workloads]
        result = run_multiprogrammed(
            bundle,
            cell.config,
            mapping=cell.mapping,
            scale=cell.scale,
            cme_accuracy=cell.cme_accuracy,
            seed=cell.seed,
        )
        payload: Dict[str, Any] = {
            "kind": "multiprog",
            "makespan": result.makespan,
            "finish_times": result.finish_times,
        }
    else:
        from repro.experiments.harness import run_workload

        workload = resolve_workload(cell.workload, dict(cell.workload_args))
        if telemetry is None and cell.collect_obs:
            telemetry = Telemetry(events=EventStream(level="off"))
        fault_plan = None
        if cell.faults:
            from repro.faults import FaultPlan

            fault_plan = FaultPlan.parse(cell.faults)
        result = run_workload(
            workload,
            cell.config,
            mapping=cell.mapping,
            scale=cell.scale,
            trips=cell.trips,
            cme_accuracy=cell.cme_accuracy,
            observe=cell.observe,
            seed=cell.seed,
            telemetry=telemetry,
            fault_plan=fault_plan,
            fault_aware=cell.fault_aware,
        )
        payload = {
            "kind": "single",
            "stats": dataclasses.asdict(result.stats),
            "moved_fraction": result.moved_fraction,
        }
        if cell.collect_obs and telemetry is not None:
            payload["obs"] = {
                "spatial": (
                    telemetry.spatial.as_dict()
                    if telemetry.spatial is not None
                    else None
                ),
                "histograms": {
                    name: hist.items()
                    for name, hist in sorted(telemetry.histograms.items())
                },
            }
    # JSON round-trip: tuples become lists, keys become strings -- the
    # exact shape a cache replay would produce, so fresh and replayed
    # payloads compare equal with no special-casing.
    return json.loads(json.dumps(payload, sort_keys=True))


def execute_cell_enveloped(cell: SweepCell) -> Dict[str, Any]:
    """:func:`execute_cell` plus an execution sidecar the coordinator keeps.

    Returns ``{"payload": ..., "pid": ..., "compile_cache": {...}}``.  The
    payload member is exactly :func:`execute_cell`'s; the sidecar (worker
    pid, this cell's compile-cache traffic delta) never enters the result
    cache.

    A cell carrying the :class:`TraceContext` a traced coordinator stamped
    on it runs under a fresh in-process :class:`Tracer` (span ids stay
    deterministic: they derive from the trace id + the cell key scope,
    never from this process's pid or clock): queue-wait and attempt
    spans, the harness's phases as child spans and admitted decision
    events as instants, returned as one more sidecar member, ``"spans"``.
    """
    ctx = cell.trace
    tracer = Tracer(ctx) if ctx is not None else Tracer.disabled()
    telemetry = None
    if tracer.enabled:
        if ctx.submitted_unix is not None:
            tracer.interval(
                "queue-wait", ctx.submitted_unix, time.time(), cat="executor"
            )
        telemetry = Telemetry(events=EventStream(level="decisions"))
        telemetry.attach_tracer(tracer)
    cache = _cell_compile_cache(cell)
    before = cache.counter_snapshot()
    with tracer.span("attempt", cat="executor", cell=cell.label()):
        payload = execute_cell(cell, telemetry=telemetry)
    envelope = {
        "payload": payload,
        "pid": os.getpid(),
        "compile_cache": cache.counters_since(before),
    }
    if tracer.enabled:
        envelope["spans"] = tracer.to_dicts()
    return envelope


def sweep_tracer(cells: Sequence[SweepCell]) -> Tracer:
    """A coordinator tracer whose trace id derives from the sweep content.

    The id digests the sorted cell keys -- the same material the result
    cache and the per-cell seeds derive from -- so rerunning the same
    sweep reproduces every span id, however it is sharded.
    """
    keys = sorted({cell.key() for cell in cells})
    return Tracer(TraceContext(trace_id=derive_trace_id(keys)))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One cell's payload plus how it was obtained."""

    cell: SweepCell
    key: str
    payload: Dict[str, Any]
    from_cache: bool = False
    attempts: int = 1
    in_process: bool = False
    seconds: float = 0.0
    pid: Optional[int] = None
    compile_cache: Dict[str, int] = field(default_factory=dict)
    """Compile-cache traffic this cell's execution contributed
    ("<kind>.<outcome>" deltas); empty for result-cache replays."""


@dataclass
class SweepResult:
    """All cell results, in input-cell order regardless of completion order."""

    results: List[CellResult]
    workers: int
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    fallbacks: int = 0
    retries: int = 0

    def by_key(self) -> Dict[str, CellResult]:
        return {r.key: r for r in self.results}

    def payloads(self) -> Dict[str, Dict[str, Any]]:
        """key -> payload; the equivalence suite's comparison object."""
        return {r.key: r.payload for r in self.results}

    def worker_pids(self) -> List[int]:
        """Distinct pids that executed cells (result-cache replays have
        none)."""
        return sorted({
            r.pid for r in self.results if r.pid is not None
        })

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def compile_cache_totals(self) -> Dict[str, Any]:
        """Compile-cache traffic summed across unique cell executions."""
        from repro.compile.cache import traffic_totals

        # Duplicate cells share one execution: count each key once.
        unique = {r.key: r.compile_cache for r in self.results}
        totals = traffic_totals(
            item for counts in unique.values() for item in counts.items()
        )
        attempts = totals["hits"] + totals["misses"]
        return {
            **totals,
            "hit_rate": round(totals["hits"] / attempts, 4) if attempts else 0.0,
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "cells": len(self.results),
            "unique_cells": len({r.key for r in self.results}),
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.hit_rate, 4),
            "compile_cache": self.compile_cache_totals(),
            "retries": self.retries,
            "fallbacks": self.fallbacks,
        }


def sweep_table(result: SweepResult, title: str = "sweep results") -> str:
    """Deterministic text table over a sweep's payloads.

    One row per cell: cycles as integers, average network latency, average
    hops, L1 hit and LLC miss rates, and the runtime overhead (inspector
    cycles) in percent of execution time.  Rows are sorted by cell label
    (as ``app_metric_table`` always sorts): the rendered bytes -- and
    hence any golden-snapshot hash of them -- are identical however the
    sweep was sharded or replayed.
    """
    from repro.experiments.report import app_metric_table
    from repro.sim.stats import RunStats

    per_cell: Dict[str, Dict[str, str]] = {}
    for r in result.results:
        label = r.cell.label()
        if label in per_cell:
            label = f"{label}#{r.key[:6]}"
        if r.payload.get("kind") == "multiprog":
            per_cell[label] = {"cycles": f"{r.payload['makespan']:,}"}
            continue
        stats = RunStats(**r.payload["stats"])
        per_cell[label] = {
            "cycles": f"{stats.execution_cycles:,}",
            "net_latency": f"{stats.avg_network_latency:.1f}",
            "avg_hops": f"{stats.avg_hops:.2f}",
            "l1_hit_rate": f"{stats.l1_hit_rate:.3f}",
            "llc_miss_rate": f"{stats.llc_miss_rate:.3f}",
            "overhead_pct": f"{100 * stats.overhead_fraction:.2f}",
        }
    return app_metric_table(
        title,
        per_cell,
        ["cycles", "net_latency", "avg_hops", "l1_hit_rate",
         "llc_miss_rate", "overhead_pct"],
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    index: int
    cell: SweepCell
    key: str
    failures: int = 0
    started: float = 0.0


def _mp_context():
    """Fork where available (inherits sys.path -> fixture workloads in
    tests resolve in workers); the platform default elsewhere."""
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool, including workers stuck in a hung cell."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_sweep(
    cells: Sequence[SweepCell],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[str] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
    cell_timeout: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> SweepResult:
    """Execute a sweep's cells, fanned out over ``workers`` processes.

    * ``cache`` / ``cache_dir`` -- memoize completed cells on disk;
      ``cache_dir`` is shorthand for ``ResultCache(cache_dir)``.
    * ``max_retries`` -- worker re-submissions per cell after its first
      failure; exhausted cells run in-process in the coordinator.
    * ``backoff_base`` -- seconds before the first retry; doubles per
      subsequent retry of the same cell.
    * ``cell_timeout`` -- seconds a worker may spend on one attempt of one
      cell before the pool is recycled and the cell counted as failed
      (there is no way to cancel a single running pool task).
    * ``tracer`` -- a :class:`repro.obs.Tracer`: executor lifecycle spans
      (submit / queue-wait / attempt / retry-backoff / pool-rebuild /
      cache-hit) are recorded in the coordinator, every cell carries a
      trace context into its worker, and the workers' spans (phases and
      decision events included) are merged back into the tracer; fold its
      phases with :func:`repro.obs.phase_table`.  ``None`` (the default)
      records into a disabled tracer, whose every method returns at once.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if tracer is None:
        tracer = Tracer.disabled()

    cells = list(cells)
    keys = [cell.key() for cell in cells]
    wall_start = time.perf_counter()

    done_by_key: Dict[str, CellResult] = {}
    result = SweepResult(results=[], workers=workers)

    with tracer.span(
        "sweep", cat="executor", cells=len(cells), workers=workers
    ) as root_span:

        def stamp(item: _Pending) -> SweepCell:
            """The cell to submit; traced, with a ``submit`` instant
            recorded and this attempt's trace context stamped on.  The
            serial and pool paths both go through here, so a serial
            sweep's span skeleton is identical to a parallel one."""
            if not tracer.enabled:
                return item.cell
            tracer.instant(
                "submit", cat="executor", scope=item.key,
                cell=item.cell.label(), attempt=item.failures + 1,
            )
            ctx = TraceContext(
                trace_id=tracer.context.trace_id,
                scope=item.key,
                parent_span_id=root_span.span_id,
                submitted_unix=time.time(),
            )
            return dataclasses.replace(item.cell, trace=ctx)

        # -- resolve cache hits and dedupe -----------------------------
        pending: List[_Pending] = []
        pending_keys: set = set()
        for index, (cell, key) in enumerate(zip(cells, keys)):
            if key in done_by_key or key in pending_keys:
                continue  # duplicate within this sweep: computed once
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                result.cache_hits += 1
                tracer.instant(
                    "cache-hit", cat="executor", scope=key, cell=cell.label()
                )
                done_by_key[key] = CellResult(
                    cell=cell, key=key, payload=cached, from_cache=True
                )
                continue
            if cache is not None:
                result.cache_misses += 1
            pending.append(_Pending(index=index, cell=cell, key=key))
            pending_keys.add(key)

        def finish(item: _Pending, raw: Dict[str, Any], attempts: int,
                   in_process: bool, seconds: float) -> None:
            # Every execution path returns an envelope; absorb the
            # sidecar, cache only the payload.
            payload = raw["payload"]
            tracer.add_spans(raw.get("spans") or ())
            if cache is not None:
                cache.put(item.key, payload)
            done_by_key[item.key] = CellResult(
                cell=item.cell,
                key=item.key,
                payload=payload,
                attempts=attempts,
                in_process=in_process,
                seconds=seconds,
                pid=raw.get("pid"),
                compile_cache=raw.get("compile_cache") or {},
            )

        def run_inline(item: _Pending, in_process: bool) -> None:
            """Coordinator-side execution with the same retry contract."""
            t0 = time.perf_counter()
            while True:
                try:
                    raw = execute_cell_enveloped(stamp(item))
                except Exception as exc:
                    item.failures += 1
                    if item.failures > max_retries:
                        raise SweepError(
                            f"cell {item.cell.label()} ({item.key}) failed "
                            f"after {item.failures} attempts: {exc!r}"
                        ) from exc
                    result.retries += 1
                    backoff = backoff_base * (2 ** (item.failures - 1))
                    _backoff_sleep(tracer, item, backoff)
                else:
                    finish(
                        item, raw, attempts=item.failures + 1,
                        in_process=in_process,
                        seconds=time.perf_counter() - t0,
                    )
                    return

        if workers == 1:
            for item in pending:
                run_inline(item, in_process=False)
        elif pending:
            _run_pool(
                pending,
                workers=workers,
                max_retries=max_retries,
                backoff_base=backoff_base,
                cell_timeout=cell_timeout,
                finish=finish,
                fallback=lambda item: (run_inline(item, in_process=True)),
                result=result,
                tracer=tracer,
                stamp=stamp,
            )

        # -- assemble in input order -----------------------------------
        result.results = [
            dataclasses.replace(done_by_key[key], cell=cell)
            for cell, key in zip(cells, keys)
        ]
    result.wall_seconds = time.perf_counter() - wall_start
    return result


def _backoff_sleep(tracer: Tracer, item: _Pending, backoff: float) -> None:
    """Exponential-backoff sleep, visible as a span when traced."""
    with tracer.span(
        "retry-backoff", cat="executor", scope=item.key,
        attempt=item.failures + 1, backoff_seconds=round(backoff, 4),
    ):
        time.sleep(backoff)


def _run_pool(
    pending: List[_Pending],
    workers: int,
    max_retries: int,
    backoff_base: float,
    cell_timeout: Optional[float],
    finish,
    fallback,
    result: SweepResult,
    stamp,
    tracer: Tracer,
) -> None:
    """The process-pool loop: submit, collect, retry, recycle, fall back."""
    ctx = _mp_context()
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    inflight: Dict[Future, _Pending] = {}

    def submit(item: _Pending) -> None:
        item.started = time.monotonic()
        inflight[pool.submit(execute_cell_enveloped, stamp(item))] = item

    def rebuild_pool(reason: str) -> ProcessPoolExecutor:
        """Kill and replace the pool, visible as a span when traced."""
        with tracer.span("pool-rebuild", cat="executor", reason=reason):
            _kill_pool(pool)
            return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

    def on_failure(item: _Pending, reason: str) -> List[_Pending]:
        """Count one failed attempt; returns the item if it may retry."""
        item.failures += 1
        if item.failures <= max_retries:
            result.retries += 1
            _backoff_sleep(
                tracer, item, backoff_base * (2 ** (item.failures - 1))
            )
            return [item]
        result.fallbacks += 1
        fallback(item)
        return []

    try:
        for item in pending:
            submit(item)
        while inflight:
            timeout = None
            if cell_timeout is not None:
                oldest = min(it.started for it in inflight.values())
                timeout = max(
                    0.02, oldest + cell_timeout - time.monotonic()
                )
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            if not done:
                # Nothing finished before the next deadline: look for a
                # hung attempt.  A single pool task cannot be cancelled,
                # so recycle the whole pool; innocent in-flight cells are
                # resubmitted without being charged an attempt.
                now = time.monotonic()
                overdue = [
                    f
                    for f, it in inflight.items()
                    if now - it.started >= (cell_timeout or 0)
                ]
                if not overdue:
                    continue
                items = list(inflight.values())
                hung = {id(inflight[f]) for f in overdue}
                inflight.clear()
                pool = rebuild_pool("timeout")
                for it in items:
                    if id(it) in hung:
                        for retry in on_failure(it, "timeout"):
                            submit(retry)
                    else:
                        submit(it)
                continue

            broken = False
            to_resubmit: List[_Pending] = []
            for future in done:
                item = inflight.pop(future)
                try:
                    payload = future.result()
                except BrokenExecutor:
                    # A worker died hard (os._exit, signal): the pool is
                    # unusable and every in-flight future fails with it.
                    broken = True
                    to_resubmit.extend(on_failure(item, "worker died"))
                except Exception as exc:
                    to_resubmit.extend(
                        on_failure(item, type(exc).__name__)
                    )
                else:
                    finish(
                        item,
                        payload,
                        attempts=item.failures + 1,
                        in_process=False,
                        seconds=time.monotonic() - item.started,
                    )
            if broken:
                # Drain survivors into the new pool.  Blame cannot be
                # attributed, so every interrupted cell is charged one
                # attempt; with default retry budgets an innocent cell
                # still completes (worst case in-process).
                survivors = list(inflight.values())
                inflight.clear()
                pool = rebuild_pool("pool broken")
                for it in survivors:
                    to_resubmit.extend(on_failure(it, "pool broken"))
            for item in to_resubmit:
                submit(item)
    finally:
        _kill_pool(pool)
