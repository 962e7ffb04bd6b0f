"""Degraded data distribution: re-hash addresses off dead MCs / banks.

When a memory controller or LLC bank is offlined, the addresses it used
to serve must land somewhere else.  ``DegradedDistribution`` wraps the
machine's pristine :class:`~repro.memory.distribution.DataDistribution`
with a remap table: the round-robin hash runs unchanged, then any target
that is offline is re-hashed deterministically onto the sorted healthy
survivors (``healthy[t % len(healthy)]``).  The remap is a pure lookup
table over target indices, so the scalar (reference engine) and
vectorized batch (fast engine) paths are bit-identical by construction.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

import numpy as np

from repro.memory.distribution import DataDistribution

from .plan import FaultPlan, FaultPlanError


def _remap_table(num_targets: int, offline: FrozenSet[int]) -> List[int]:
    healthy: List[int] = [t for t in range(num_targets) if t not in offline]
    if not healthy:
        raise FaultPlanError(
            "fault plan offlines every target; at least one must survive"
        )
    return [
        healthy[t % len(healthy)] if t in offline else t
        for t in range(num_targets)
    ]


class DegradedDistribution:
    """A :class:`DataDistribution` with offline targets re-hashed away.

    Exposes the same query surface (``mc_of``/``bank_of`` and their
    ``_batch`` twins, plus the descriptive attributes), so every consumer
    -- S-NUCA mapper, machine memory path, spatial telemetry -- degrades
    transparently.
    """

    def __init__(
        self,
        base: DataDistribution,
        offline_mcs: FrozenSet[int] = frozenset(),
        offline_banks: FrozenSet[int] = frozenset(),
    ):
        self.base = base
        self.offline_mcs = offline_mcs
        self.offline_banks = offline_banks
        self._mc_lut = _remap_table(base.num_mcs, offline_mcs)
        self._bank_lut = _remap_table(base.num_llc_banks, offline_banks)

    # Descriptive attributes consumers read off a distribution.
    @property
    def num_mcs(self) -> int:
        return self.base.num_mcs

    @property
    def num_llc_banks(self) -> int:
        return self.base.num_llc_banks

    @property
    def layout(self):
        return self.base.layout

    @property
    def mc_granularity(self):
        return self.base.mc_granularity

    @property
    def bank_granularity(self):
        return self.base.bank_granularity

    # -- queries ---------------------------------------------------------
    # The scalar lookups run once per L1 miss, so they index the plain
    # lists; the batch twins index an array of the same table.
    def mc_of(self, addr: int) -> int:
        return self._mc_lut[self.base.mc_of(addr)]

    def bank_of(self, addr: int) -> int:
        return self._bank_lut[self.base.bank_of(addr)]

    def mc_of_batch(self, addrs):
        return np.asarray(self._mc_lut)[self.base.mc_of_batch(addrs)]

    def bank_of_batch(self, addrs):
        return np.asarray(self._bank_lut)[self.base.bank_of_batch(addrs)]

    def cache_material(self):
        """Content-addressed key material (:mod:`repro.compile`).

        Not a dataclass, so the generic manifest normalizer cannot render
        it field by field; spell out the fields that determine every
        ``mc_of``/``bank_of`` answer instead.
        """
        from repro.obs.manifest import _normalize

        return {
            "kind": "degraded",
            "base": _normalize(self.base),
            "offline_mcs": sorted(self.offline_mcs),
            "offline_banks": sorted(self.offline_banks),
        }

    def describe(self) -> str:
        parts = [self.base.describe()]
        if self.offline_mcs:
            parts.append(f"mcs-offline={sorted(self.offline_mcs)}")
        if self.offline_banks:
            parts.append(f"banks-offline={sorted(self.offline_banks)}")
        return " ".join(parts)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_plan(
        cls, base: DataDistribution, plan: Optional[FaultPlan]
    ):
        """Wrap ``base`` iff the plan offlines something; else pass through.

        Returning the pristine distribution untouched for plans without
        offline faults keeps the zero-fault path literally the original
        object, which the differential equivalence suite relies on.
        """
        if plan is None or plan.is_empty:
            return base
        offline_mcs = plan.offline_mcs()
        offline_banks = plan.offline_banks()
        if not offline_mcs and not offline_banks:
            return base
        return cls(base, offline_mcs=offline_mcs, offline_banks=offline_banks)
