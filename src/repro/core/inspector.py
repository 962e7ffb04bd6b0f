"""Inspector-executor runtime for irregular applications (Section 4).

Irregular codes access arrays through index arrays whose contents exist
only at run time, so the compiler cannot build MAI/CAI statically.  Instead
it plants an *inspector* after the first trip of the outer timing loop:

1. trip 1 executes under the default schedule while the engine records,
   per iteration set and under ``INSPECT_LABEL``, the observed LLC hits
   (and their home banks) and misses (and their MCs);
2. :func:`observed_affinity` folds each observation into exact MAI / CAI /
   alpha values;
3. :meth:`LocationAwareCompiler.compile_observed
   <repro.core.pipeline.LocationAwareCompiler.compile_observed>` sends
   them through the same mapping step as compile-time estimates;
4. remaining trips (the *executor*) run the result.

All inspector bookkeeping is charged to execution time
(:class:`InspectorCost`): a per-recorded-access cost plus the mapping
computation, matching the paper's fully accounted 0.7-19.5% overheads
(Figures 7c / 8c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sim.engine import ObservedSet

from .affinity import affinity_from_counts
from .alpha import determine_alpha
from .mapping import SetAffinity

INSPECT_LABEL = "inspector"


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


def observed_affinity(
    set_id: int,
    entry: ObservedSet,
    bank_region: Optional[Sequence[int]] = None,
) -> SetAffinity:
    """The exact affinity of one observed iteration set.

    MAI counts the set's misses per MC.  With ``bank_region`` (home bank
    -> region, the shared-LLC case) the LLC hits are folded onto regions
    as CAI and alpha is the observed hit fraction; without it the result
    carries MAI only, as a private-LLC affinity does.
    """
    mai = affinity_from_counts(
        entry.miss_mc.astype(float), len(entry.miss_mc)
    )
    if bank_region is None:
        return SetAffinity(set_id=set_id, mai=mai)
    region_counts = np.bincount(bank_region, weights=entry.hit_bank)
    cai = affinity_from_counts(region_counts, len(region_counts))
    alpha = determine_alpha(entry.llc_hits, max(1, entry.llc_accesses))
    return SetAffinity(set_id=set_id, mai=mai, cai=cai, alpha=alpha)
