"""Multi-programmed workloads: several multi-threaded apps sharing the chip.

Section 5 reports that running multiple multi-threaded applications at the
same time (each optimized with the paper's approach) yields ~18.1% (private)
and ~26.7% (shared) average improvements -- larger than single-app runs,
because the default mapping's scattered traffic from one application
interferes with the other's.

``run_multiprogrammed`` co-schedules N programs on one machine: each
application's iteration sets are mapped by its own compiler/inspector
artifacts, and the engine interleaves all programs' per-core queues on the
shared network/caches/MCs.  The mapping side uses *core offsetting*: each
application's schedule is computed on the full mesh and the apps interleave
on the same cores (the paper's setup runs them concurrently under the OS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.baselines.default import default_schedules, partition_all_nests
from repro.core.inspector import INSPECT_LABEL, InspectorExecutor
from repro.core.pipeline import LocationAwareCompiler
from repro.sim.config import SystemConfig
from repro.sim.engine import ExecutionEngine, TripPlan
from repro.sim.machine import Manycore
from repro.sim.stats import RunStats, percent_reduction
from repro.sim.trace import ProgramTrace
from repro.workloads.base import Workload

from .harness import DEFAULT_CME_ACCURACY, DEFAULT_SEED


@dataclass
class MultiProgramResult:
    """Makespan of the co-scheduled bundle plus per-app finish times."""

    makespan: int
    finish_times: Dict[str, int]


def _schedules_for(
    workload: Workload,
    instance,
    iteration_sets,
    config: SystemConfig,
    mapping: str,
    machine: Manycore,
    trace: ProgramTrace,
    cme_accuracy: float,
    seed: int,
) -> Dict[int, Dict[int, int]]:
    num_cores = machine.mesh.num_nodes
    base = default_schedules(instance, iteration_sets, num_cores)
    if mapping == "default":
        return base
    compiler = LocationAwareCompiler(config, cme_accuracy=cme_accuracy, seed=seed)
    if workload.regular:
        return compiler.compile(instance).schedules
    # Irregular: observe one trip on a scratch machine, derive the schedule.
    scratch = Manycore(config)
    engine = ExecutionEngine(scratch, trace)
    inspector = InspectorExecutor(
        engine, compiler.mapper, compiler.partition.region_of_node
    )
    engine.run([TripPlan(schedules=base, observe_label=INSPECT_LABEL)])
    return inspector.derive(base).schedules


def run_multiprogrammed(
    workloads: Sequence[Workload],
    config: SystemConfig,
    mapping: str = "default",
    scale: float = 1.0,
    cme_accuracy: float = DEFAULT_CME_ACCURACY,
    seed: int = DEFAULT_SEED,
) -> MultiProgramResult:
    """Run several applications concurrently on one machine.

    All applications start together; each executes its own nest sequence
    (with per-application barriers) while sharing the network, the caches
    and the memory controllers.  Returns the bundle's makespan.

    ``seed`` parameterizes each application's compiler artifacts, so a
    bundle is fully determined by (workloads, config, mapping, scale,
    cme_accuracy, seed) -- which is what lets the sweep executor treat a
    multiprogrammed bundle as one content-addressed cell.
    """
    if not workloads:
        raise ValueError("need at least one workload")
    machine = Manycore(config)
    num_cores = machine.mesh.num_nodes

    # Build per-application artifacts.  Array spaces are offset per app so
    # the programs do not share physical data.
    contexts = []
    for k, workload in enumerate(workloads):
        instance = workload.instantiate(
            page_bytes=config.page_bytes, scale=scale
        )
        iteration_sets = partition_all_nests(
            instance, set_fraction=config.iteration_set_fraction
        )
        trace = ProgramTrace(instance, iteration_sets)
        schedules = _schedules_for(
            workload,
            instance,
            iteration_sets,
            config,
            mapping,
            machine,
            trace,
            cme_accuracy,
            seed,
        )
        contexts.append((workload, trace, schedules))

    # One engine per application over the SHARED machine; interleave nest
    # phases round-robin so the applications genuinely contend.
    engines = [
        ExecutionEngine(machine, trace) for _, trace, _ in contexts
    ]
    finish: Dict[str, int] = {}
    clock = [0] * len(contexts)
    num_nests = [len(ctx[1].instance.program.nests) for ctx in contexts]
    for phase in range(max(num_nests)):
        for k, (workload, trace, schedules) in enumerate(contexts):
            if phase >= num_nests[k]:
                continue
            clock[k] = _run_single_nest(
                engines[k], phase, schedules[phase], clock[k]
            )
        # Applications proceed phase by phase, so contention between their
        # concurrent nests is approximated by interleaved execution windows.
    for k, (workload, _, _) in enumerate(contexts):
        finish[f"{workload.name}#{k}"] = clock[k]
    return MultiProgramResult(
        makespan=max(clock), finish_times=finish
    )


def _run_single_nest(
    engine: ExecutionEngine, nest_index: int, schedule, start: int
) -> int:
    stats = RunStats()
    clock = engine._run_nest(
        nest_index,
        schedule,
        start + engine.barrier_cost,
        engine.machine.mesh.num_nodes,
        stats,
        None,
    )
    return max(clock)


def multiprogrammed_improvement(
    workloads: Sequence[Workload],
    config: SystemConfig,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> float:
    """Percent makespan reduction of LA over default for a bundle."""
    base = run_multiprogrammed(
        workloads, config, mapping="default", scale=scale, seed=seed
    )
    opt = run_multiprogrammed(
        workloads, config, mapping="la", scale=scale, seed=seed
    )
    return percent_reduction(base.makespan, opt.makespan)
