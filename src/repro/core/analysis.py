"""Building MAI / CAI vectors from classified accesses.

This is the bridge between estimation and mapping: given a list of accesses
labelled hit/miss (from the compile-time CME for regular codes, or from the
inspector's observations for irregular ones), produce the
:class:`~repro.core.mapping.SetAffinity` the mapper consumes.

* **MAI** counts each predicted *miss* toward the MC its address maps to
  (``distribution.mc_of``).  Thanks to the location-bit-preserving OS
  allocation, virtual addresses give the same answer as physical ones.
* **CAI** (shared LLC only) counts each predicted *hit* toward the region of
  the home LLC bank (``distribution.bank_of`` -> node -> region).
* **alpha** is the hit fraction (:mod:`repro.core.alpha`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cache.snuca import LLCOrganization
from repro.cme.equations import ClassifiedAccess
from repro.memory.distribution import DataDistribution

from .affinity import AffinityVector, affinity_from_counts, eta
from .alpha import determine_alpha
from .mapping import SetAffinity
from .regions import RegionPartition


@dataclass(frozen=True)
class ArchitectureView:
    """The slice of the architecture exposed to the compiler (Figure 4).

    Bundles the region partition (which encodes the mesh and MC positions)
    with the address-distribution policy -- all the "architecture
    information" input of the paper's flow.
    """

    partition: RegionPartition
    distribution: DataDistribution

    @property
    def num_mcs(self) -> int:
        return self.distribution.num_mcs

    @property
    def num_regions(self) -> int:
        return self.partition.num_regions

    def mc_of(self, vaddr: int) -> int:
        return self.distribution.mc_of(vaddr)

    def bank_region_table(self) -> np.ndarray:
        """Home-bank -> region lookup table (vectorized CAI path)."""
        return np.fromiter(
            (
                self.partition.region_of_node(bank)
                for bank in range(self.distribution.num_llc_banks)
            ),
            dtype=np.int64,
            count=self.distribution.num_llc_banks,
        )


def _access_arrays(accesses: Iterable[ClassifiedAccess]):
    """(vaddrs, hits) as numpy arrays for the bincount paths below."""
    materialized = (
        accesses if isinstance(accesses, Sequence) else list(accesses)
    )
    vaddrs = np.fromiter(
        (a.vaddr for a in materialized), dtype=np.int64, count=len(materialized)
    )
    hits = np.fromiter(
        (a.llc_hit for a in materialized), dtype=bool, count=len(materialized)
    )
    return vaddrs, hits


def build_mai(
    accesses: Iterable[ClassifiedAccess], view: ArchitectureView
) -> AffinityVector:
    """MAI: distribution of the set's LLC *misses* over MCs.

    Vectorized over the classified-access stream with ``np.bincount`` (the
    same shape as :mod:`repro.obs.spatial` uses for traffic); counts are
    integer-valued, so this is bit-identical to the scalar accumulation.
    """
    vaddrs, hits = _access_arrays(accesses)
    miss_vaddrs = vaddrs[~hits]
    counts = np.bincount(
        view.distribution.mc_of_batch(miss_vaddrs), minlength=view.num_mcs
    ).astype(float)
    return affinity_from_counts(counts, view.num_mcs)


def build_cai(
    accesses: Iterable[ClassifiedAccess], view: ArchitectureView
) -> AffinityVector:
    """CAI: distribution of the set's LLC *hits* over home-bank regions."""
    vaddrs, hits = _access_arrays(accesses)
    banks = view.distribution.bank_of_batch(vaddrs[hits])
    regions = view.bank_region_table()[banks]
    counts = np.bincount(regions, minlength=view.num_regions).astype(float)
    return affinity_from_counts(counts, view.num_regions)


def build_set_affinity(
    set_id: int,
    accesses: Sequence[ClassifiedAccess],
    view: ArchitectureView,
    organization: LLCOrganization,
    iterations: int = 1,
) -> SetAffinity:
    """Assemble the mapper input for one iteration set."""
    mai = build_mai(accesses, view)
    if organization is LLCOrganization.PRIVATE:
        return SetAffinity(
            set_id=set_id, mai=mai, cai=None, alpha=0.0, iterations=iterations
        )
    cai = build_cai(accesses, view)
    hits = sum(1 for a in accesses if a.llc_hit)
    alpha = determine_alpha(hits, len(accesses))
    return SetAffinity(
        set_id=set_id, mai=mai, cai=cai, alpha=alpha, iterations=iterations
    )


def mai_error(predicted: AffinityVector, observed: AffinityVector) -> float:
    """The accuracy metric of Figures 7a / 8a: eta(predicted, observed)."""
    return eta(predicted, observed)


def average_mai_error(
    pairs: Sequence[tuple],
) -> float:
    """Mean eta over (predicted, observed) vector pairs; 0.0 when empty."""
    if not pairs:
        return 0.0
    return float(np.mean([eta(p, o) for p, o in pairs]))
