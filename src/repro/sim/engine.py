"""Execution engine: runs a scheduled program on a machine.

Per-core timelines advance through the program's loop nests in order, with a
barrier between nests (the nests are parallel loops; successive nests may
depend on each other).  Cores are interleaved in global-time order via a
heap so network/MC contention sees a realistic mix of traffic, executing a
small chunk of iterations per turn to keep Python overhead bounded.

A run is a list of :class:`TripPlan` -- one per trip of the outer timing
loop.  Irregular codes use several trips: trip 1 runs the default schedule
under observation (the *inspector*), later trips run the derived schedule
(the *executor*); ``overhead_cycles`` charges the inspector's bookkeeping to
every core at the end of its trip.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.snuca import LLCOrganization

from .machine import Manycore
from .stats import RunStats
from .trace import ProgramTrace, SetTrace


@dataclass
class ObservedSet:
    """Runtime-observed behaviour of one iteration set (inspector output)."""

    miss_mc: np.ndarray
    hit_bank: np.ndarray
    llc_hits: int = 0
    llc_accesses: int = 0

    def record(self, mc: int, bank: int) -> None:
        """Count one L1 miss: served off-chip by ``mc``, or (``mc`` < 0)
        on chip by home ``bank``."""
        self.llc_accesses += 1
        if mc >= 0:
            self.miss_mc[mc] += 1
        else:
            self.llc_hits += 1
            self.hit_bank[bank] += 1


@dataclass
class TripPlan:
    """Schedule (and instrumentation) of one timing-loop trip.

    ``observe_label`` turns on per-set observation recording for this trip;
    trips sharing a label accumulate into the same table.  The engine only
    records: :func:`repro.core.inspector.observed_affinity` turns an
    entry into MAI / CAI / alpha.
    """

    schedules: Dict[int, Dict[int, int]]
    observe_label: Optional[str] = None
    overhead_cycles: int = 0


class ExecutionEngine:
    """Drives one program instance over one machine.

    ``mode`` selects the execution implementation:

    * ``"fast"`` (default) -- batched fast path: per chunk, addresses are
      translated in bulk and the L1-hit majority is consumed by the issuing
      core's :class:`~repro.cache.cache.BulkAccessCursor`, one probe per
      same-line run and no walk through the machine per reference; only L1
      misses (the accesses that generate NoC/MC traffic) take the scalar
      :meth:`Manycore.access` walk.  Behaviour-identical to the
      reference path -- same ``RunStats``, same observation tables, same
      packet injection times -- which ``tests/sim/test_engine_equivalence.py``
      enforces across the config matrix.
    * ``"reference"`` -- the original one-``access``-call-per-reference
      scalar model.

    When unspecified, the mode follows ``machine.config.engine_mode``.
    """

    def __init__(
        self,
        machine: Manycore,
        trace: ProgramTrace,
        chunk_iterations: int = 16,
        barrier_cost: int = 100,
        mode: Optional[str] = None,
    ):
        if chunk_iterations < 1:
            raise ValueError("chunk size must be positive")
        if mode is None:
            mode = machine.config.engine_mode
        if mode not in ("fast", "reference"):
            raise ValueError("mode must be 'fast' or 'reference'")
        self.machine = machine
        self.trace = trace
        self.chunk_iterations = chunk_iterations
        self.barrier_cost = barrier_cost
        self.mode = mode
        self.observations: Dict[str, Dict[Tuple[int, int], ObservedSet]] = {}
        # Telemetry attachment points, hoisted out of the chunk loops; all
        # None when the machine carries no telemetry (zero hot-path cost).
        telemetry = machine.telemetry
        self._spatial = machine.spatial
        self._events = (
            telemetry.events
            if telemetry is not None and telemetry.events.enabled
            else None
        )
        self._shared_llc = (
            machine.snuca.organization is LLCOrganization.SHARED
        )

    # ------------------------------------------------------------------
    def run(self, plans: List[TripPlan], start_cycle: int = 0) -> RunStats:
        """Execute all trips; returns aggregate statistics.

        ``start_cycle`` lets a caller continue a run (e.g. executor trips
        after a separately run inspector trip) without resetting machine
        component clocks: all core timelines begin there, and the returned
        ``execution_cycles`` is the *absolute* finish time.
        """
        if not plans:
            raise ValueError("need at least one trip plan")
        stats = RunStats()
        num_cores = self.machine.mesh.num_nodes
        clock = [start_cycle] * num_cores
        events = self._events
        for trip_index, plan in enumerate(plans):
            trip_start = max(clock)
            clock = self._run_trip(plan, clock, stats)
            if plan.overhead_cycles:
                clock = [t + plan.overhead_cycles for t in clock]
                stats.overhead_cycles += plan.overhead_cycles
            if events is not None:
                events.emit(
                    "engine.trip",
                    level="debug",
                    trip=trip_index,
                    observe_label=plan.observe_label,
                    start_cycle=trip_start,
                    end_cycle=max(clock),
                    overhead_cycles=plan.overhead_cycles,
                )
        stats.execution_cycles = max(clock) if clock else 0
        self.machine.fill_stats(stats)
        return stats

    # ------------------------------------------------------------------
    def _run_trip(
        self, plan: TripPlan, clock: List[int], stats: RunStats
    ) -> List[int]:
        num_cores = self.machine.mesh.num_nodes
        events = self._events
        for nest_index in range(len(self.trace.instance.program.nests)):
            schedule = plan.schedules.get(nest_index)
            if schedule is None:
                raise KeyError(f"no schedule for nest {nest_index}")
            start = max(clock) + self.barrier_cost
            clock = self._run_nest(
                nest_index, schedule, start, num_cores, stats, plan.observe_label
            )
            if events is not None:
                events.emit(
                    "engine.nest",
                    level="debug",
                    nest=nest_index,
                    start_cycle=start,
                    end_cycle=max(clock),
                )
        return clock

    def _run_nest(
        self,
        nest_index: int,
        schedule: Dict[int, int],
        start: int,
        num_cores: int,
        stats: RunStats,
        observe_label: Optional[str],
    ) -> List[int]:
        cfg = self.machine.config
        nest = self.trace.instance.program.nests[nest_index]
        compute = nest.compute_cycles
        overlap = 1.0 - cfg.stall_overlap
        iteration_sets = self.trace.iteration_sets[nest_index]
        sets_by_id = {s.set_id: s for s in iteration_sets}
        run_chunk = (
            self._run_chunk_fast if self.mode == "fast" else self._run_chunk_reference
        )

        # Per-core queue of set traces, in set-id order.
        queues: Dict[int, List[SetTrace]] = {c: [] for c in range(num_cores)}
        for set_id in sorted(schedule):
            core = schedule[set_id]
            queues[core].append(
                self.trace.set_trace(nest_index, sets_by_id[set_id])
            )

        finish = [start] * num_cores
        heap: List[Tuple[int, int]] = []
        cursors: Dict[int, Tuple[int, int]] = {}  # core -> (queue idx, iter idx)
        for core, queue in queues.items():
            if queue:
                cursors[core] = (0, 0)
                heapq.heappush(heap, (start, core))

        chunk = self.chunk_iterations
        while heap:
            # The earliest core runs one chunk and goes back into the heap
            # in place (heapreplace); the (time, core) entries are distinct,
            # so the order cores are popped in is that of pop-then-push.
            t, core = heap[0]
            qidx, k = cursors[core]
            queue = queues[core]
            trace = queue[qidx]
            iterations = trace.iterations
            limit = min(iterations, k + chunk)
            observed = None
            if observe_label is not None:
                observed = self._observed_entry(
                    observe_label, nest_index, trace.set_id
                )
            t = run_chunk(
                core, trace, k, limit, t, compute, overlap, stats, observed
            )
            k = limit
            if k >= iterations:
                qidx += 1
                k = 0
            if qidx < len(queue):
                cursors[core] = (qidx, k)
                heapq.heapreplace(heap, (t, core))
            else:
                heapq.heappop(heap)
                finish[core] = t
        return finish

    # ------------------------------------------------------------------
    def _run_chunk_reference(
        self,
        core: int,
        trace: SetTrace,
        k: int,
        limit: int,
        t: int,
        compute: int,
        overlap: float,
        stats: RunStats,
        observed: Optional[ObservedSet],
    ) -> int:
        """Scalar reference model: one machine access per reference."""
        machine_access = self.machine.access
        addresses = trace.addresses
        writes = trace.writes
        n_refs = trace.refs_per_iteration
        if self._spatial is not None:
            # Same accounting as the bulk path: translate the chunk stream
            # up front (first-touch faults happen in stream order, exactly
            # as the scalar walk below would trigger them -- re-translation
            # is idempotent) and bin its home banks in one pass.
            flat = np.ascontiguousarray(addresses[k:limit]).reshape(-1)
            paddrs = self.machine.translate_batch(flat)
            self._record_touches(core, paddrs)
        while k < limit:
            t += compute
            row = addresses[k]
            for r in range(n_refs):
                completion, mc, bank = machine_access(
                    core, int(row[r]), bool(writes[r]), t
                )
                if bank < 0:  # L1 hit
                    t = completion
                else:
                    charged = int((completion - t) * overlap)
                    t += charged
                    stats.memory_stall_cycles += charged
                    if observed is not None:
                        observed.record(mc, bank)
            stats.iterations_executed += 1
            k += 1
        return t

    def _run_chunk_fast(
        self,
        core: int,
        trace: SetTrace,
        k: int,
        limit: int,
        t: int,
        compute: int,
        overlap: float,
        stats: RunStats,
        observed: Optional[ObservedSet],
    ) -> int:
        """Batched fast path: bulk L1-hit runs, scalar misses.

        Time bookkeeping is closed-form over each hit run: ``compute`` is
        charged once per iteration boundary crossed and ``l1_latency`` once
        per hit, which is exactly what the reference loop accumulates for
        the same accesses.  Misses are replayed through the scalar machine
        walk at the very cycle the reference model would issue them, so
        network contention, DRAM timing and observation accounting are
        bit-identical.
        """
        machine = self.machine
        machine_access = machine.access
        l1_latency = machine.config.l1_latency
        n_refs = trace.refs_per_iteration
        lo = k * n_refs
        hi = limit * n_refs
        vaddrs = trace.flat_addresses[lo:hi]
        writes = trace.flat_writes[lo:hi]
        # One bulk translation per chunk, in stream order (first-touch
        # faults happen as the scalar walk would trigger them).
        paddrs = machine.translate_batch(vaddrs)
        if self._spatial is not None:
            # Spatial telemetry rides the batched stream natively: one
            # bincount per chunk.
            self._record_touches(core, paddrs)
        cursor = machine.hierarchy.l1_bulk_cursor(core, paddrs, writes)
        # Misses read the chunk by position from plain lists, converted at
        # the chunk's first miss: no numpy scalar is converted per miss.
        vaddr_list = write_list = None
        total = hi - lo
        pos = 0
        stalled = 0
        while pos < total:
            hits = cursor.consume_hits()
            if hits:
                end = pos + hits
                # Iteration boundaries crossed = indices in [pos, end) that
                # start an iteration (flat index divisible by n_refs).
                starts = (end - 1) // n_refs - (pos - 1) // n_refs
                t += starts * compute + hits * l1_latency
                pos = end
                if pos >= total:
                    break
            if pos % n_refs == 0:
                t += compute
            # The cursor stopped here, so this access misses in the L1.
            if vaddr_list is None:
                vaddr_list = vaddrs.tolist()
                write_list = writes.tolist()
            completion, mc, bank = machine_access(
                core, vaddr_list[pos], write_list[pos], t
            )
            charged = int((completion - t) * overlap)
            t += charged
            stalled += charged
            if observed is not None:
                observed.record(mc, bank)
            cursor.advance_miss()
            pos += 1
        stats.memory_stall_cycles += stalled
        stats.iterations_executed += limit - k
        return t

    def _record_touches(self, core: int, paddrs: np.ndarray) -> None:
        """Bin one chunk's home banks into the spatial accumulators.

        Shared LLC: the S-NUCA home of each address.  Private LLC: every
        address homes in the issuing core's own bank, so the whole chunk
        folds to one scalar add.
        """
        if self._shared_llc:
            self._spatial.record_bank_touches(
                self.machine.home_banks_batch(paddrs)
            )
        else:
            self._spatial.bank_touches[core] += len(paddrs)

    def _observed_entry(
        self, label: str, nest_index: int, set_id: int
    ) -> ObservedSet:
        table = self.observations.setdefault(label, {})
        key = (nest_index, set_id)
        entry = table.get(key)
        if entry is None:
            entry = ObservedSet(
                miss_mc=np.zeros(self.machine.config.num_mcs, dtype=np.int64),
                hit_bank=np.zeros(self.machine.mesh.num_nodes, dtype=np.int64),
            )
            table[key] = entry
        return entry
