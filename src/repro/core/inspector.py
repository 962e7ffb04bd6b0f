"""Inspector-executor runtime for irregular applications (Section 4).

Irregular codes access arrays through index arrays whose contents exist
only at run time, so the compiler cannot build MAI/CAI statically.  Instead
it plants an *inspector* after the first trip of the outer timing loop:

1. trip 1 executes under the default schedule while recording, per
   iteration set, the observed LLC hits (and their home banks) and misses
   (and their MCs);
2. the observations become exact MAI / CAI / alpha values;
3. the mapper produces the optimized schedule;
4. remaining trips (the *executor*) run it.

All inspector bookkeeping is charged to execution time: a per-recorded-
access cost plus the mapping computation, matching the paper's fully
accounted 0.7-19.5% overheads (Figures 7c / 8c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.snuca import LLCOrganization
from repro.sim.engine import ExecutionEngine, ObservedSet

from .affinity import affinity_from_counts
from .alpha import determine_alpha
from .mapping import FAULT_CANDIDATE_MARGIN_OBSERVED, Mapper, SetAffinity

INSPECT_LABEL = "inspector"
EXECUTE_LABEL = "executor"


@dataclass
class InspectorCost:
    """Model of the inspector's runtime overhead.

    ``cycles_per_access``: table update per recorded L1-miss access.
    ``cycles_per_set``: affinity-vector construction and mapping per set.
    ``fixed_cycles``: schedule installation and bookkeeping.
    The total is divided across cores (the inspector is parallel) and
    charged at the end of the inspection trip.
    """

    cycles_per_access: float = 0.8
    cycles_per_set: float = 80.0
    fixed_cycles: int = 4000

    def total_cycles(
        self, recorded_accesses: int, num_sets: int, num_cores: int
    ) -> int:
        work = (
            recorded_accesses * self.cycles_per_access
            + num_sets * self.cycles_per_set
        )
        return int(work / max(1, num_cores)) + self.fixed_cycles


@dataclass
class InspectorReport:
    """What the inspector measured and decided."""

    affinities: Dict[Tuple[int, int], SetAffinity] = field(default_factory=dict)
    schedules: Dict[int, Dict[int, int]] = field(default_factory=dict)
    moved_fractions: Dict[int, float] = field(default_factory=dict)
    overhead_cycles: int = 0

    @property
    def avg_moved_fraction(self) -> float:
        if not self.moved_fractions:
            return 0.0
        return sum(self.moved_fractions.values()) / len(self.moved_fractions)


class InspectorExecutor:
    """Derives an irregular program's executor schedule from one observed
    trip."""

    def __init__(
        self,
        engine: ExecutionEngine,
        mapper: Mapper,
        region_of_node,
        cost: Optional[InspectorCost] = None,
        oblivious_mapper: Optional[Mapper] = None,
    ):
        self.engine = engine
        self.mapper = mapper
        self.region_of_node = region_of_node
        self.cost = cost or InspectorCost()
        # Fault-aware runs pass the pristine-table mapper alongside the
        # degraded one; derive races both on the observed affinities and
        # keeps the schedule that prices cheaper on the degraded topology
        # (oblivious on ties), mirroring the compiler's candidate pass.
        self.oblivious_mapper = oblivious_mapper

    # ------------------------------------------------------------------
    def derive(
        self, base_schedules: Dict[int, Dict[int, int]]
    ) -> InspectorReport:
        """Turn the inspector trip's observations into the executor's report.

        The engine must already have run the inspector trip under
        ``base_schedules`` with ``observe_label=INSPECT_LABEL``.  The report
        holds the observed affinities, one schedule per nest (the fault-aware
        and oblivious arms raced when an oblivious mapper is given) and the
        inspector's cycle charge.  A nest whose accesses all hit in L1 during
        inspection produced no observations: it keeps its round-robin
        schedule from ``base_schedules``.
        """
        table = self.engine.observations.get(INSPECT_LABEL, {})
        report = InspectorReport()
        by_nest: Dict[int, List[SetAffinity]] = {}
        organization = self.mapper.organization
        num_regions = self.mapper.partition.num_regions
        for (nest_index, set_id), entry in sorted(table.items()):
            affinity = self._affinity_from_observation(
                set_id, entry, organization, num_regions
            )
            report.affinities[(nest_index, set_id)] = affinity
            by_nest.setdefault(nest_index, []).append(affinity)
        for nest_index, affinities in by_nest.items():
            schedule = self.mapper.assign(affinities, nest_index=nest_index)
            if self.oblivious_mapper is not None:
                # The inspector observed the *actual* degraded machine, so
                # both arms share one exact affinity set; they differ only
                # in MAC/CAC/capacity tables.
                oblivious = self.oblivious_mapper.assign(
                    affinities, nest_index=nest_index
                )
                cost_aware = self.mapper.predicted_cost(
                    schedule.set_to_region, affinities
                )
                cost_oblivious = self.mapper.predicted_cost(
                    oblivious.set_to_region, affinities
                )
                chose_aware = cost_aware < cost_oblivious * (
                    1.0 - FAULT_CANDIDATE_MARGIN_OBSERVED
                )
                events = self.mapper.events
                if events is not None and events.enabled:
                    events.emit(
                        "mapper.fault_candidates",
                        nest=nest_index,
                        cost_aware=round(cost_aware, 6),
                        cost_oblivious=round(cost_oblivious, 6),
                        chosen="aware" if chose_aware else "oblivious",
                    )
                if not chose_aware:
                    schedule = oblivious
            report.schedules[nest_index] = schedule.set_to_core
            report.moved_fractions[nest_index] = schedule.moved_fraction
        report.overhead_cycles = self.cost.total_cycles(
            recorded_accesses=sum(
                entry.llc_accesses for entry in table.values()
            ),
            num_sets=len(report.affinities),
            num_cores=self.engine.machine.mesh.num_nodes,
        )
        for nest_index, base in base_schedules.items():
            report.schedules.setdefault(nest_index, base)
        return report

    def _affinity_from_observation(
        self,
        set_id: int,
        entry: ObservedSet,
        organization: LLCOrganization,
        num_regions: int,
    ) -> SetAffinity:
        mai = affinity_from_counts(
            entry.miss_mc.astype(float), len(entry.miss_mc)
        )
        if organization is LLCOrganization.PRIVATE:
            return SetAffinity(set_id=set_id, mai=mai)
        region_counts = np.zeros(num_regions, dtype=float)
        for node, count in enumerate(entry.hit_bank):
            if count:
                region_counts[self.region_of_node(node)] += count
        cai = affinity_from_counts(region_counts, num_regions)
        alpha = determine_alpha(entry.llc_hits, max(1, entry.llc_accesses))
        return SetAffinity(set_id=set_id, mai=mai, cai=cai, alpha=alpha)
