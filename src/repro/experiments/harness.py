"""Experiment harness: run one workload under one configuration + mapping.

``run_workload`` is the single entry point every figure reproduction uses.
Mappings:

* ``default``  -- round-robin baseline (Section 5, "Default Computation
                  Mapping").
* ``la``       -- the paper's location-aware mapping: compile-time pipeline
                  for regular codes, inspector-executor for irregular ones.
* ``hardware`` -- the Das-style intensity-ranked placement (Figure 14).
* ``do``       -- data layout optimization only (Figure 13): default
                  schedule over re-homed pages.
* ``la+do``    -- layout remap first, then the location-aware schedule
                  computed against the remapped placement.

Measurement methodology (paper, Section 5: "After the warm-up phase we
simulated each application ..."): every run simulates distinct *phases* --
a cold trip, for the inspector path a migration trip, and a steady-state
trip -- and composes the reported execution time as

    total = cold + [inspector overhead] + [migration] + remaining * steady

for the workload's modeled trip count.  Network statistics are taken from
the steady-state trip only, matching the paper's warmed-up measurements.
Any mapping can run on an ideal network via ``config.ideal_network()``
(Figure 2).  ``cme_accuracy`` defaults to the middle of the paper's
reported 76-93% band; pass 1.0 for the Figure 15 oracle.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analyze import gate as _analyze_gate
from repro.baselines.default import default_schedules, partition_all_nests
from repro.baselines.hardware import hardware_schedules
from repro.baselines.layout import build_layout_remap
from repro.cme.equations import CacheMissEstimator
from repro.core.analysis import mai_error
from repro.core.inspector import (
    INSPECT_LABEL,
    InspectorCost,
    observed_affinity,
)
from repro.core.pipeline import CompiledSchedule, LocationAwareCompiler
from repro.obs import Telemetry, build_manifest
from repro.sim.config import SystemConfig
from repro.sim.engine import ExecutionEngine, TripPlan
from repro.sim.machine import Manycore
from repro.sim.stats import Comparison, RunStats
from repro.sim.trace import ProgramTrace
from repro.workloads.base import Workload

DEFAULT_CME_ACCURACY = 0.85
DEFAULT_SEED = 11
"""The harness seed: it drives CME sampling and the estimator's accuracy
flips.  Every run, sweep cell and figure defaults to it."""
OBSERVE_RUN = "run"
MODELED_TRIPS = 12
"""Timing-loop trips the measured execution models (inspector amortization)."""

MAPPINGS = ("default", "la", "hardware", "do", "la+do")


@dataclass
class RunResult:
    """Stats plus the artifacts needed by accuracy/overhead figures."""

    stats: RunStats
    compiled: Optional[CompiledSchedule] = None
    engine: Optional[ExecutionEngine] = None

    @property
    def moved_fraction(self) -> float:
        if self.compiled is None:
            return 0.0
        return self.compiled.avg_moved_fraction

    def _mapped_and_observed(self, bank_region=None):
        """(mapped, steady-trip observed) affinity of every set the steady
        trip observed.

        The mapped affinities are compile-time estimates for regular codes
        and inspector-trip observations for irregular ones.  Sorted
        reduction: the affinity dict's insertion order depends on how the
        schedule was derived; error lists must not (float aggregation is
        order-sensitive, and the parallel sweep executor compares them
        field-identically across run orders).
        """
        if self.compiled is None or self.engine is None:
            return []
        table = self.engine.observations.get(OBSERVE_RUN, {})
        return [
            (affinity, observed_affinity(key[1], table[key], bank_region))
            for key, affinity in sorted(self.compiled.affinities.items())
            if key in table
        ]

    def mai_errors(self) -> List[float]:
        """Per-set eta between the mapped and the steady-trip MAI."""
        return [
            mai_error(mapped.mai, observed.mai)
            for mapped, observed in self._mapped_and_observed()
            if observed.mai.sum() > 0
        ]

    def cai_errors(self, region_of_node) -> List[float]:
        """Per-set eta between mapped and observed CAI (shared LLC)."""
        if self.engine is None:
            return []
        bank_region = [
            region_of_node(node)
            for node in range(self.engine.machine.mesh.num_nodes)
        ]
        return [
            mai_error(mapped.cai, observed.cai)
            for mapped, observed in self._mapped_and_observed(bank_region)
            if mapped.cai is not None and observed.cai.sum() > 0
        ]


@dataclass
class _NetSnapshot:
    packets: int = 0
    latency: int = 0
    hops: int = 0
    flit_hops: int = 0
    queueing: int = 0

    @classmethod
    def of(cls, machine: Manycore) -> "_NetSnapshot":
        s = machine.network.stats
        return cls(s.packets, s.total_latency, s.total_hops, s.flit_hops,
                   s.total_queueing)

    def diff_into(self, machine: Manycore, stats: RunStats) -> None:
        s = machine.network.stats
        stats.network_packets = s.packets - self.packets
        stats.network_total_latency = s.total_latency - self.latency
        stats.network_total_hops = s.total_hops - self.hops
        stats.network_flit_hops = s.flit_hops - self.flit_hops


def _build_translation(mapping, instance, iteration_sets, config):
    if mapping not in ("do", "la+do"):
        return None
    mesh = config.build_mesh()
    schedules = default_schedules(instance, iteration_sets, mesh.num_nodes)
    return build_layout_remap(
        instance=instance,
        iteration_sets=iteration_sets,
        default_schedules=schedules,
        mesh=mesh,
        distribution=config.build_distribution(),
    )


def run_workload(
    workload: Workload,
    config: SystemConfig,
    mapping: str = "default",
    scale: float = 1.0,
    trips: Optional[int] = None,
    cme_accuracy: float = DEFAULT_CME_ACCURACY,
    observe: bool = False,
    seed: int = DEFAULT_SEED,
    compiler_kwargs: Optional[dict] = None,
    inspector_cost: Optional[InspectorCost] = None,
    telemetry: Optional[Telemetry] = None,
    analyze_gate: bool = False,
    fault_plan=None,
    fault_aware: bool = True,
    compile_cache="auto",
) -> RunResult:
    """Simulate one workload end to end; returns stats + artifacts.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) degrades the
    simulated hardware -- downed/throttled links, hotspot routers,
    offline LLC banks, throttled/offline MCs.  With ``fault_aware=True``
    (default) the location-aware compiler maps against the degraded
    machine; ``fault_aware=False`` keeps the mapping oblivious for A/B
    comparison.  An empty plan is identical to no plan at all.

    ``analyze_gate=True`` runs the :mod:`repro.analyze` static checks
    (parallel-safety certification plus config/mapping invariants) before
    any cycle is simulated and raises
    :class:`repro.analyze.AnalysisError` on error-severity findings.

    ``trips`` overrides the modeled timing-loop trip count (default
    ``MODELED_TRIPS``); the number of *simulated* trips stays 2-3 (cold /
    migration / steady) regardless, with the remainder extrapolated from
    the steady-state trip.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) attaches the run's
    observability hub: phase spans around setup / compile / each simulated
    trip, spatial traffic accumulators collected off the machine, mapper
    decision events, and a run manifest on ``result.stats.manifest``.
    ``None`` (no hub) costs nothing.

    ``compile_cache`` memoizes the compile-side artifacts (CME estimates,
    affinity vectors, proximity tables): ``"auto"`` (default) uses the
    process-wide :func:`repro.compile.get_compile_cache`; a
    :class:`repro.compile.CompileCache` instance is used directly; ``None``
    or ``False`` disables memoization.  All three modes produce
    byte-identical results -- the cache is a pure compile-time speedup.
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"unknown mapping {mapping!r}; one of {MAPPINGS}")
    if compile_cache == "auto":
        from repro.compile import get_compile_cache

        compile_cache = get_compile_cache()
    elif not compile_cache:
        compile_cache = None
    cache_counts_before = (
        compile_cache.counter_snapshot() if compile_cache is not None else None
    )
    if fault_plan is not None and fault_plan.is_empty:
        fault_plan = None
    if analyze_gate:
        _analyze_gate(workload=workload, config=config, fault_plan=fault_plan)
    wall_start = time.perf_counter()

    def _timed(name):
        return telemetry.phase(name) if telemetry is not None else nullcontext()

    modeled_trips = trips if trips is not None else MODELED_TRIPS
    if modeled_trips < 3:
        raise ValueError("modeled trip count must be at least 3")
    with _timed("setup"):
        instance = workload.instantiate(
            page_bytes=config.page_bytes, scale=scale
        )
        compiler_kwargs = dict(compiler_kwargs or {})
        set_fraction = compiler_kwargs.pop(
            "iteration_set_fraction", config.iteration_set_fraction
        )
        iteration_sets = partition_all_nests(
            instance, set_fraction=set_fraction
        )
        translation = _build_translation(
            mapping, instance, iteration_sets, config
        )
        machine = Manycore(
            config, translation=translation, telemetry=telemetry,
            faults=fault_plan,
        )
        trace = ProgramTrace(instance, iteration_sets)
        engine = ExecutionEngine(machine, trace)
        num_cores = machine.mesh.num_nodes
        base_schedules = default_schedules(instance, iteration_sets, num_cores)
    stats = RunStats()

    def run_phase(schedules, label=None, start=0, overhead=0, phase="sim"):
        with _timed(phase):
            phase_stats = engine.run(
                [TripPlan(schedules=schedules, observe_label=label,
                          overhead_cycles=overhead)],
                start_cycle=start,
            )
        stats.memory_stall_cycles += phase_stats.memory_stall_cycles
        stats.iterations_executed += phase_stats.iterations_executed
        return phase_stats.execution_cycles

    wants_la = mapping in ("la", "la+do")
    compiled: Optional[CompiledSchedule] = None

    if not wants_la or workload.regular:
        # Single-schedule runs: cold trip, then a steady trip we measure.
        if wants_la:
            # Constructing the compiler builds (or fetches) the MAC/CAC
            # proximity tables, so it counts as compile-phase work.
            with _timed("compile"):
                compiler = _build_compiler(
                    config, cme_accuracy, set_fraction, seed, compiler_kwargs,
                    telemetry=telemetry, fault_plan=fault_plan,
                    fault_aware=fault_aware, compile_cache=compile_cache,
                )
                compiled = compiler.compile(instance)
            schedules = compiled.schedules
        elif mapping == "hardware":
            estimator = CacheMissEstimator(
                llc_size_bytes=config.l2_size_bytes,
                llc_assoc=config.l2_assoc,
                line_bytes=config.l2_line_bytes,
                accuracy=cme_accuracy,
                seed=seed,
            )
            schedules = hardware_schedules(
                instance, iteration_sets, machine.mesh, estimator
            )
        else:
            schedules = base_schedules
        cold_end = run_phase(schedules, phase="sim.cold")
        snap = _NetSnapshot.of(machine)
        label = OBSERVE_RUN if (observe or wants_la) else None
        steady_end = run_phase(
            schedules, label=label, start=cold_end, phase="sim.steady"
        )
        steady = steady_end - cold_end
        snap.diff_into(machine, stats)
        stats.execution_cycles = cold_end + (modeled_trips - 1) * steady
    else:
        # Irregular location-aware: inspector trip (default schedule,
        # observed), migration trip, steady trip.
        with _timed("compile"):
            compiler = _build_compiler(
                config, cme_accuracy, set_fraction, seed, compiler_kwargs,
                telemetry=telemetry, fault_plan=fault_plan,
                fault_aware=fault_aware, compile_cache=compile_cache,
            )
        inspect_end = run_phase(
            base_schedules, label=INSPECT_LABEL, phase="sim.inspect"
        )
        with _timed("compile"):
            compiled = compiler.compile_observed(
                engine.observations.get(INSPECT_LABEL, {}), base_schedules,
                cost=inspector_cost,
            )
        migrate_end = run_phase(
            compiled.schedules, start=inspect_end,
            overhead=compiled.overhead_cycles, phase="sim.migrate",
        )
        snap = _NetSnapshot.of(machine)
        steady_end = run_phase(
            compiled.schedules, label=OBSERVE_RUN, start=migrate_end,
            phase="sim.steady",
        )
        steady = steady_end - migrate_end
        snap.diff_into(machine, stats)
        stats.overhead_cycles = compiled.overhead_cycles
        stats.execution_cycles = migrate_end + (modeled_trips - 2) * steady

    machine_stats = RunStats()
    machine.fill_stats(machine_stats)
    stats.l1_accesses = machine_stats.l1_accesses
    stats.l1_hits = machine_stats.l1_hits
    stats.llc_accesses = machine_stats.llc_accesses
    stats.llc_hits = machine_stats.llc_hits
    stats.dram_accesses = machine_stats.dram_accesses
    stats.dram_row_hits = machine_stats.dram_row_hits
    if telemetry is not None:
        spatial = machine.collect_spatial()
        if __debug__:
            # Invariant sweep: the spatial accumulators must reconcile with
            # the aggregate counters (l1 hits + misses == accesses, per-MC
            # requests sum to LLC misses, ...).  Always on in debug runs.
            violations = spatial.reconcile(stats)
            assert not violations, (
                "telemetry reconciliation failed: " + "; ".join(violations)
            )
        telemetry.manifest = build_manifest(
            config,
            seed=seed,
            workload=workload.name,
            mapping=mapping,
            scale=scale,
            wall_seconds=time.perf_counter() - wall_start,
            phase_seconds=telemetry.phase_seconds(),
            extra={
                "trips": modeled_trips,
                "cme_accuracy": cme_accuracy,
                "compile_cache": _compile_cache_section(
                    compile_cache, cache_counts_before
                ),
                **(
                    {
                        "faults": list(fault_plan.to_specs()),
                        "fault_plan_hash": fault_plan.plan_hash(),
                        "fault_aware": fault_aware,
                    }
                    if fault_plan is not None
                    else {}
                ),
            },
        )
        stats.manifest = telemetry.manifest
    return RunResult(
        stats=stats,
        compiled=compiled,
        engine=engine,
    )


def _compile_cache_section(cache, before) -> dict:
    """The manifest's ``compile_cache`` entry: this run's traffic delta.

    The cache (and its counters) is usually process-wide, so the manifest
    records only what *this* run contributed -- the counters observed at
    run start are subtracted out.
    """
    if cache is None:
        return {"enabled": False}
    from repro.compile.cache import traffic_totals

    delta = cache.counters_since(before)
    return {
        "enabled": True,
        "store": str(cache.store.root) if cache.store is not None else None,
        "counters": delta,
        **traffic_totals(delta.items()),
    }


def _build_compiler(config, cme_accuracy, set_fraction, seed, compiler_kwargs,
                    telemetry=None, fault_plan=None, fault_aware=True,
                    compile_cache=None):
    return LocationAwareCompiler(
        config,
        cme_accuracy=cme_accuracy,
        iteration_set_fraction=set_fraction,
        seed=seed,
        telemetry=telemetry,
        fault_plan=fault_plan,
        fault_aware=fault_aware,
        compile_cache=compile_cache,
        **compiler_kwargs,
    )


def compare(
    workload: Workload,
    config: SystemConfig,
    optimized: str = "la",
    scale: float = 1.0,
    trips: Optional[int] = None,
    cme_accuracy: float = DEFAULT_CME_ACCURACY,
    observe: bool = False,
    seed: int = DEFAULT_SEED,
    compiler_kwargs: Optional[dict] = None,
    telemetry: Optional[Telemetry] = None,
    fault_plan=None,
    fault_aware: bool = True,
    compile_cache="auto",
) -> Tuple[Comparison, RunResult, RunResult]:
    """Baseline (default mapping) vs an optimized mapping on one config.

    ``telemetry`` instruments the *optimized* run only: spatial
    accumulators are per-machine, and attaching one hub to both runs
    would interleave their traffic.  Phase timers and the manifest on
    ``opt.stats.manifest`` therefore describe the optimized run.
    """
    base = run_workload(
        workload, config, mapping="default", scale=scale, trips=trips,
        seed=seed, fault_plan=fault_plan, fault_aware=fault_aware,
    )
    opt = run_workload(
        workload,
        config,
        mapping=optimized,
        scale=scale,
        trips=trips,
        cme_accuracy=cme_accuracy,
        observe=observe,
        seed=seed,
        compiler_kwargs=compiler_kwargs,
        telemetry=telemetry,
        fault_plan=fault_plan,
        fault_aware=fault_aware,
        compile_cache=compile_cache,
    )
    comparison = Comparison(
        name=workload.name, baseline=base.stats, optimized=opt.stats
    )
    return comparison, base, opt
