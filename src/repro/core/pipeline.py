"""The end-to-end compiler pipeline of Figure 4.

``LocationAwareCompiler.compile`` takes a program instance plus the
architecture description and produces, per parallel loop nest:

1. iteration sets (schedule granularity, Table 4's 0.25% default);
2. CME-classified sampled accesses per set (data access pattern + cache
   miss estimation);
3. MAI / CAI / alpha per set (affinity analysis);
4. an iteration-set-to-core schedule (mapping + load balancing).

This is the *regular-application* path: everything happens "at compile
time" against the compiler-visible virtual addresses.  Irregular programs
go through :mod:`repro.core.inspector` instead, which builds the same
artifacts from runtime observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analyze.diagnostics import AnalysisError, AnalysisReport
from repro.analyze.invariants import check_set_affinities
from repro.analyze.parallel import certify_nest
from repro.cache.snuca import LLCOrganization
from repro.cme.equations import CacheMissEstimator
from repro.ir.dependence import validate_parallelism
from repro.ir.iterspace import IterationSet, partition_iteration_sets
from repro.ir.loops import ProgramInstance
from repro.sim.config import SystemConfig

from .analysis import ArchitectureView, build_set_affinity
from .mapping import (
    FAULT_CANDIDATE_MARGIN_ESTIMATED,
    Mapper,
    PlacementStrategy,
    ProximityTables,
    Schedule,
    SetAffinity,
    build_proximity_tables,
)
from .proximity import MacMode
from .regions import RegionPartition

PIPELINE_VERSION = 3
"""Semantic version of the mapping/simulation pipeline.

Bump this whenever a change alters what any (workload, config, mapping,
seed) cell *computes* -- compiler heuristics, engine timing, estimator
behaviour.  The sweep executor folds it into every content-addressed
cache key (:mod:`repro.exec`), so stale results from an older pipeline
can never be replayed as current ones.
"""


@dataclass
class CompiledSchedule:
    """Everything the compiler emits for one program instance."""

    iteration_sets: Dict[int, List[IterationSet]]
    schedules: Dict[int, Dict[int, int]]
    affinities: Dict[Tuple[int, int], SetAffinity] = field(default_factory=dict)
    moved_fractions: Dict[int, float] = field(default_factory=dict)

    @property
    def avg_moved_fraction(self) -> float:
        if not self.moved_fractions:
            return 0.0
        return sum(self.moved_fractions.values()) / len(self.moved_fractions)


class LocationAwareCompiler:
    """The paper's compiler pass, parameterized by the machine config."""

    def __init__(
        self,
        config: SystemConfig,
        mac_mode: MacMode = MacMode.NEAREST,
        cac_self_weight: float = 0.5,
        placement: PlacementStrategy = PlacementStrategy.STABLE_RR,
        balance: bool = True,
        alpha_weighting: bool = True,
        cme_accuracy: float = 1.0,
        cme_sample_iterations: int = 8,
        iteration_set_fraction: Optional[float] = None,
        num_regions: Optional[int] = None,
        check_parallelism: bool = True,
        analyze_gate: bool = False,
        seed: int = 11,
        telemetry=None,
        fault_plan=None,
        fault_aware: bool = True,
        compile_cache=None,
    ):
        self.config = config
        # Optional repro.compile.CompileCache: memoizes the expensive
        # compile-side artifacts (CME estimates, affinity vectors, MAC/CAC
        # tables) across compiles, runs, and processes.  Cached payloads
        # are JSON-round-tripped on *every* path, so the cached and
        # uncached pipelines are bit-identical by construction.  (This
        # module never imports repro.compile at the top level -- that
        # package imports repro.exec.cache, which reaches back here.)
        self.compile_cache = compile_cache
        self._instance_hash: Optional[str] = None
        self.check_parallelism = check_parallelism
        # Fault-aware compilation: with a non-empty repro.faults.FaultPlan
        # and fault_aware=True, affinity analysis sees the degraded data
        # distribution and the mapper steers by effective distances and
        # capacities.  fault_aware=False compiles against the pristine
        # machine view even though the plan will degrade the simulated
        # hardware -- the oblivious arm of the A/B comparison.
        if fault_plan is not None and fault_plan.is_empty:
            fault_plan = None
        self.fault_plan = fault_plan
        self.fault_aware = fault_aware
        # Opt-in pre-run gate: run the repro.analyze certifier over every
        # nest and validate the derived affinity vectors; error findings
        # abort compilation with an AnalysisError carrying the report.
        self.analyze_gate = analyze_gate
        # Optional repro.obs.Telemetry: phases time the Figure 4 stages and
        # the mapper narrates its decisions into the hub's event stream.
        self.telemetry = telemetry
        self.iteration_set_fraction = (
            iteration_set_fraction
            if iteration_set_fraction is not None
            else config.iteration_set_fraction
        )
        mesh = config.build_mesh()
        if num_regions is None:
            self.partition = RegionPartition(
                mesh, region_w=config.region_w, region_h=config.region_h
            )
        else:
            from .regions import partition_by_count

            self.partition = partition_by_count(mesh, num_regions)
        distribution = config.build_distribution()
        degraded = None
        if self.fault_plan is not None and self.fault_aware:
            from repro.faults import DegradedDistribution, DegradedTopology

            degraded = DegradedTopology(
                mesh, self.fault_plan, router_delay=config.router_delay
            )
            distribution = DegradedDistribution.from_plan(
                distribution, self.fault_plan
            )
        self.view = ArchitectureView(
            partition=self.partition, distribution=distribution
        )
        mapper_kwargs = dict(
            partition=self.partition,
            organization=config.llc_organization,
            mac_mode=mac_mode,
            cac_self_weight=cac_self_weight,
            placement=placement,
            balance=balance,
            alpha_weighting=alpha_weighting,
            seed=seed,
        )
        aware_tables: Optional[ProximityTables] = None
        pristine_tables: Optional[ProximityTables] = None
        if self.compile_cache is not None:
            fault_hash = (
                self.fault_plan.plan_hash() if degraded is not None else None
            )
            aware_tables = self._cached_tables(
                mac_mode, cac_self_weight, degraded, fault_hash
            )
            if degraded is not None:
                # The oblivious arm keys its tables with fault_plan=None,
                # sharing the exact entries a fault-blind compile writes.
                pristine_tables = self._cached_tables(
                    mac_mode, cac_self_weight, None, None
                )
        self.mapper = Mapper(
            events=self.telemetry.events if self.telemetry is not None else None,
            faults=degraded,
            tables=aware_tables,
            **mapper_kwargs,
        )
        # Graceful degradation by construction: next to the fault-aware
        # mapper, keep the exact pipeline a --no-fault-aware compile runs
        # (pristine view, pristine tables, fresh deterministic RNG).  Each
        # nest is scheduled by both and the predicted-cheaper schedule
        # under the *degraded* topology wins, oblivious on ties -- so
        # fault-awareness can fall back to fault-blind behaviour bit for
        # bit, but never regress below it.
        self.oblivious_view = None
        self.oblivious_mapper = None
        self._oblivious_affinities: Dict[Tuple[int, int], SetAffinity] = {}
        if degraded is not None:
            self.oblivious_view = ArchitectureView(
                partition=self.partition,
                distribution=config.build_distribution(),
            )
            self.oblivious_mapper = Mapper(
                events=None, faults=None, tables=pristine_tables,
                **mapper_kwargs,
            )
        # CME models the capacity the program actually has available: the
        # local bank for private LLCs, the aggregate for S-NUCA.
        llc_bytes = config.l2_size_bytes
        if config.llc_organization is LLCOrganization.SHARED:
            llc_bytes = config.l2_size_bytes * config.num_cores
        self.estimator = CacheMissEstimator(
            llc_size_bytes=llc_bytes,
            llc_assoc=config.l2_assoc,
            line_bytes=config.l2_line_bytes,
            accuracy=cme_accuracy,
            sample_iterations=cme_sample_iterations,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def _cached_tables(
        self,
        mac_mode: MacMode,
        cac_self_weight: float,
        faults,
        fault_plan_hash: Optional[str],
    ) -> ProximityTables:
        """Proximity tables via the compile cache (pristine or degraded)."""
        from repro.compile import tables_material
        from repro.compile.artifacts import decode_tables, encode_tables

        material = tables_material(
            self.partition,
            self.config.llc_organization,
            mac_mode,
            cac_self_weight,
            fault_plan_hash,
            self.config.router_delay,
        )
        payload = self.compile_cache.get_or_build(
            "tables",
            material,
            lambda: encode_tables(
                build_proximity_tables(
                    self.partition,
                    self.config.llc_organization,
                    mac_mode=mac_mode,
                    cac_self_weight=cac_self_weight,
                    faults=faults,
                )
            ),
        )
        return decode_tables(payload)

    # ------------------------------------------------------------------
    def partition_nest(
        self, instance: ProgramInstance, nest_index: int
    ) -> List[IterationSet]:
        dom = instance.nest_domain(nest_index)
        return partition_iteration_sets(
            dom.size, set_fraction=self.iteration_set_fraction
        )

    def compile(self, instance: ProgramInstance) -> CompiledSchedule:
        """Run the full Figure 4 flow over every parallel nest."""
        if self.analyze_gate:
            self._gate_instance(instance)
        if self.compile_cache is not None:
            from repro.compile import instance_digest

            self._instance_hash = instance_digest(instance)
        result = CompiledSchedule(iteration_sets={}, schedules={})
        for nest_index, nest in enumerate(instance.program.nests):
            if self.check_parallelism:
                validate_parallelism(nest)
            sets = self.partition_nest(instance, nest_index)
            result.iteration_sets[nest_index] = sets
            if self.telemetry is not None:
                with self.telemetry.phase("analyze"):
                    affinities = self._analyze_nest(instance, nest_index, sets)
            else:
                affinities = self._analyze_nest(instance, nest_index, sets)
            if self.analyze_gate:
                self._gate_affinities(instance, nest_index, affinities)
            for affinity in affinities:
                result.affinities[(nest_index, affinity.set_id)] = affinity
            if self.telemetry is not None:
                with self.telemetry.phase("assign"):
                    schedule = self._assign_nest(nest_index, affinities)
            else:
                schedule = self._assign_nest(nest_index, affinities)
            result.schedules[nest_index] = schedule.set_to_core
            result.moved_fractions[nest_index] = schedule.moved_fraction
        return result

    def _assign_nest(
        self, nest_index: int, affinities: List[SetAffinity]
    ) -> Schedule:
        """Map one nest; under faults, race the aware and oblivious arms.

        The oblivious arm reruns the mapper exactly as a
        ``fault_aware=False`` compile would (pristine view, pristine
        tables), so falling back to it reproduces the fault-blind
        schedule verbatim.  Both candidates are priced by effective
        post-fault distances and the cheaper wins, the oblivious one on
        ties: fault-awareness never predicts worse than fault-blindness.
        """
        schedule = self.mapper.assign(affinities, nest_index=nest_index)
        if self.oblivious_mapper is None:
            return schedule
        oblivious_affinities = [
            self._oblivious_affinities[(nest_index, a.set_id)]
            for a in affinities
        ]
        oblivious = self.oblivious_mapper.assign(
            oblivious_affinities, nest_index=nest_index
        )
        cost_aware = self.mapper.predicted_cost(
            schedule.set_to_region, affinities
        )
        cost_oblivious = self.mapper.predicted_cost(
            oblivious.set_to_region, affinities
        )
        chose_aware = cost_aware < cost_oblivious * (
            1.0 - FAULT_CANDIDATE_MARGIN_ESTIMATED
        )
        if self.telemetry is not None:
            self.telemetry.events.emit(
                "mapper.fault_candidates",
                nest=nest_index,
                cost_aware=round(cost_aware, 6),
                cost_oblivious=round(cost_oblivious, 6),
                chosen="aware" if chose_aware else "oblivious",
            )
        return schedule if chose_aware else oblivious

    # ------------------------------------------------------------------
    # Pre-run static gate (repro.analyze)
    # ------------------------------------------------------------------
    def _gate_instance(self, instance: ProgramInstance) -> None:
        """Certify every nest's parallel annotation before compiling."""
        report = AnalysisReport(subject=f"compile:{instance.name}")
        for nest in instance.program.nests:
            cert = certify_nest(nest, instance.params)
            report.extend(cert.diagnostics)
        if not report.ok:
            raise AnalysisError(report)

    def _gate_affinities(
        self,
        instance: ProgramInstance,
        nest_index: int,
        affinities: List[SetAffinity],
    ) -> None:
        """Reject malformed MAI/CAI vectors before the mapper sees them."""
        nest = instance.program.nests[nest_index]
        findings = check_set_affinities(
            affinities,
            num_mcs=self.config.num_mcs,
            num_regions=self.partition.num_regions,
            subject=f"compile:{instance.name}/nest:{nest.name}",
        )
        if findings:
            report = AnalysisReport(
                subject=f"compile:{instance.name}/nest:{nest.name}"
            )
            report.extend(findings)
            raise AnalysisError(report)

    # ------------------------------------------------------------------
    def _analyze_nest(
        self,
        instance: ProgramInstance,
        nest_index: int,
        sets: List[IterationSet],
    ) -> List[SetAffinity]:
        # One estimator pass per nest, shared by both machine views.  The
        # estimator is a pure function of (instance, nest, sets, params):
        # its sampling RNGs are string-seeded per (nest, set), so call
        # order and call count cannot desynchronize anything -- which is
        # also what makes its output safely memoizable (repro.compile).
        if self.compile_cache is not None:
            return self._analyze_nest_cached(instance, nest_index, sets)
        estimates = self.estimator.estimate_nest(instance, nest_index, sets)
        affinities = self._affinities_from(sets, estimates, self.view)
        if self.oblivious_view is not None:
            for affinity in self._affinities_from(
                sets, estimates, self.oblivious_view
            ):
                key = (nest_index, affinity.set_id)
                self._oblivious_affinities[key] = affinity
        return affinities

    def _analyze_nest_cached(
        self,
        instance: ProgramInstance,
        nest_index: int,
        sets: List[IterationSet],
    ) -> List[SetAffinity]:
        """The memoized twin of the inline branch above.

        Affinity vectors are cached per (estimates material, view); when
        every view hits, the CME pass is skipped entirely.  On a miss the
        estimates are themselves fetched through the cache -- computed at
        most once per nest and shared by both views, exactly like the
        inline path.
        """
        from repro.compile import affinity_material, estimates_material
        from repro.compile.artifacts import (
            decode_affinities,
            decode_estimates,
            encode_affinities,
            encode_estimates,
        )

        cache = self.compile_cache
        est_material = estimates_material(
            self._instance_hash, nest_index, sets, self.estimator
        )
        shared: Dict[str, Dict] = {}

        def estimates():
            if "estimates" not in shared:
                payload = cache.get_or_build(
                    "estimates",
                    est_material,
                    lambda: encode_estimates(
                        self.estimator.estimate_nest(instance, nest_index, sets)
                    ),
                )
                shared["estimates"] = decode_estimates(payload)
            return shared["estimates"]

        def affinities_for(view: ArchitectureView) -> List[SetAffinity]:
            payload = cache.get_or_build(
                "affinity",
                affinity_material(
                    est_material, view, self.config.llc_organization
                ),
                lambda: encode_affinities(
                    self._affinities_from(sets, estimates(), view)
                ),
            )
            return decode_affinities(payload)

        affinities = affinities_for(self.view)
        if self.oblivious_view is not None:
            for affinity in affinities_for(self.oblivious_view):
                key = (nest_index, affinity.set_id)
                self._oblivious_affinities[key] = affinity
        return affinities

    def _affinities_from(
        self,
        sets: List[IterationSet],
        estimates,
        view: ArchitectureView,
    ) -> List[SetAffinity]:
        affinities: List[SetAffinity] = []
        for iteration_set in sets:
            estimate = estimates[iteration_set.set_id]
            affinities.append(
                build_set_affinity(
                    set_id=iteration_set.set_id,
                    accesses=estimate.accesses,
                    view=view,
                    organization=self.config.llc_organization,
                    iterations=iteration_set.size,
                )
            )
        return affinities
