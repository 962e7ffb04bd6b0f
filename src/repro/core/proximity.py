"""MAC and CAC: the architecture-side affinity vectors.

Both are application independent -- pure functions of the mesh geometry,
the MC placement and the region partition -- so they are computed once per
machine configuration.

**MAC(R)** (Section 3.3): equal weight over the MCs nearest (Manhattan, from
the region center) to region R; zero elsewhere.  This reproduces Figure 6a
exactly: corner regions bind fully to their corner MC, edge regions split
0.5/0.5 over the two near MCs, and the center region spreads 0.25 over all
four.  An alternative smooth inverse-distance mode implements the
finer-granular encoding the paper floats in Section 3.9.

**CAC(R)** (Section 3.7): ``self_weight`` (default 0.5) on R itself and the
remainder split equally over R's 4-connected region-grid neighbours --
Figure 6c verbatim.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List

import numpy as np

from .affinity import AffinityVector, affinity_from_counts
from .regions import RegionPartition


class MacMode(enum.Enum):
    NEAREST = "nearest"              # paper default (Figure 6a)
    INVERSE_DISTANCE = "inverse"     # Section 3.9's finer-granular option


def _region_mc_distances(
    partition: RegionPartition, region: int
) -> List[float]:
    mesh = partition.mesh
    cx, cy = partition.region_center(region)
    distances = []
    for mc in mesh.mcs:
        mx, my = mc.position
        distances.append(abs(cx - mx) + abs(cy - my))
    return distances


def mac_vector(
    partition: RegionPartition,
    region: int,
    mode: MacMode = MacMode.NEAREST,
    tie_tolerance: float = 1e-6,
) -> AffinityVector:
    """Memory affinity of the cores in ``region``."""
    distances = _region_mc_distances(partition, region)
    num_mcs = len(distances)
    if mode is MacMode.NEAREST:
        dmin = min(distances)
        counts = [1.0 if d <= dmin + tie_tolerance else 0.0 for d in distances]
        return affinity_from_counts(counts, num_mcs)
    # Inverse-distance: weight ~ 1/(1+d); smoother, never exactly zero.
    counts = [1.0 / (1.0 + d) for d in distances]
    return affinity_from_counts(counts, num_mcs)


def mac_table(
    partition: RegionPartition, mode: MacMode = MacMode.NEAREST
) -> Dict[int, AffinityVector]:
    """MAC for every region of a partition."""
    return {
        r: mac_vector(partition, r, mode=mode) for r in partition.regions()
    }


def cac_vector(
    partition: RegionPartition, region: int, self_weight: float = 0.5
) -> AffinityVector:
    """Cache affinity of the cores in ``region`` (Figure 6c).

    ``self_weight`` of the preference goes to the region's own LLC banks;
    the rest is split equally across its immediate (4-connected) neighbours.
    With no neighbours (single-region partition) all weight stays local.
    """
    if not 0.0 < self_weight <= 1.0:
        raise ValueError("self_weight must be in (0, 1]")
    counts = np.zeros(partition.num_regions, dtype=float)
    neighbors = partition.region_neighbors(region)
    if not neighbors:
        counts[region] = 1.0
        return affinity_from_counts(counts, partition.num_regions)
    counts[region] = self_weight
    share = (1.0 - self_weight) / len(neighbors)
    for n in neighbors:
        counts[n] = share
    return affinity_from_counts(counts, partition.num_regions)


def cac_table(
    partition: RegionPartition, self_weight: float = 0.5
) -> Dict[int, AffinityVector]:
    """CAC for every region of a partition."""
    return {
        r: cac_vector(partition, r, self_weight=self_weight)
        for r in partition.regions()
    }


def degraded_mac_vector(
    partition: RegionPartition,
    region: int,
    topology,
    mode: MacMode = MacMode.NEAREST,
    tie_tolerance: float = 1e-6,
) -> AffinityVector:
    """MAC of ``region`` under a degraded topology.

    ``topology`` duck-types :class:`repro.faults.DegradedTopology`
    (``mc_distance_units(node, mc_index)`` returning effective distance,
    ``inf`` for offline/unreachable MCs).  Distances are averaged over
    the region's nodes rather than taken from the geometric center:
    detours around downed links make effective distance non-Manhattan,
    so the center is no longer representative.
    """
    num_mcs = len(partition.mesh.mcs)
    nodes = partition.nodes_in_region(region)
    distances = []
    for mc_index in range(num_mcs):
        per_node = [topology.mc_distance_units(n, mc_index) for n in nodes]
        distances.append(sum(per_node) / len(per_node))
    finite = [d for d in distances if np.isfinite(d)]
    if not finite:
        raise ValueError(
            f"region {region}: no memory controller is reachable under "
            "the active fault plan"
        )
    if mode is MacMode.NEAREST:
        dmin = min(finite)
        counts = [
            1.0 if np.isfinite(d) and d <= dmin + tie_tolerance else 0.0
            for d in distances
        ]
        return affinity_from_counts(counts, num_mcs)
    counts = [1.0 / (1.0 + d) if np.isfinite(d) else 0.0 for d in distances]
    return affinity_from_counts(counts, num_mcs)


def degraded_mac_table(
    partition: RegionPartition, topology, mode: MacMode = MacMode.NEAREST
) -> Dict[int, AffinityVector]:
    """Degraded MAC for every region of a partition."""
    return {
        r: degraded_mac_vector(partition, r, topology, mode=mode)
        for r in partition.regions()
    }


def _healthy_bank_fraction(
    partition: RegionPartition, topology, region: int
) -> float:
    nodes = partition.nodes_in_region(region)
    offline = topology.offline_banks
    healthy = sum(1 for n in nodes if n not in offline)
    return healthy / len(nodes)


def degraded_cac_vector(
    partition: RegionPartition,
    region: int,
    topology,
    self_weight: float = 0.5,
) -> AffinityVector:
    """CAC of ``region`` with offline LLC banks discounted.

    The Figure 6c shape (self plus 4-connected neighbours) is kept, but
    each candidate region's weight is scaled by its fraction of healthy
    banks: a region whose banks are partially offlined attracts
    proportionally less cache affinity.
    """
    if not 0.0 < self_weight <= 1.0:
        raise ValueError("self_weight must be in (0, 1]")
    num_regions = partition.num_regions
    counts = np.zeros(num_regions, dtype=float)
    neighbors = partition.region_neighbors(region)
    counts[region] = self_weight * _healthy_bank_fraction(
        partition, topology, region
    )
    if neighbors:
        share = (1.0 - self_weight) / len(neighbors)
        for n in neighbors:
            counts[n] = share * _healthy_bank_fraction(partition, topology, n)
    elif counts[region] > 0.0:
        counts[region] = 1.0
    if counts.sum() <= 0.0:
        # Every bank in sight is offline; fall back to a uniform spread
        # over whatever regions still have healthy banks anywhere.
        for r in partition.regions():
            if _healthy_bank_fraction(partition, topology, r) > 0.0:
                counts[r] = 1.0
        if counts.sum() <= 0.0:
            raise ValueError(
                "fault plan offlines every LLC bank; nothing to map to"
            )
    return affinity_from_counts(counts, num_regions)


def degraded_cac_table(
    partition: RegionPartition, topology, self_weight: float = 0.5
) -> Dict[int, AffinityVector]:
    """Degraded CAC for every region of a partition."""
    return {
        r: degraded_cac_vector(partition, r, topology, self_weight=self_weight)
        for r in partition.regions()
    }


def region_capacities(partition: RegionPartition, topology) -> np.ndarray:
    """Relative load-bearing capacity of each region under faults.

    Heuristic fed to the load balancer so degraded regions are assigned
    proportionally fewer iteration sets.  Two effects combine:

    * memory reach: the ratio of the region's pristine distance to its
      nearest MC over its *effective* (post-fault) distance -- detours,
      throttles and offline MCs all stretch the denominator;
    * cache health: the fraction of the region's LLC banks still online,
      blended at half strength (a dead bank re-homes its sets nearby,
      which costs hops but not correctness).

    A pristine machine yields all-ones, i.e. the balancer's classic
    equal-share targets.
    """
    mesh = partition.mesh
    capacities = np.ones(partition.num_regions, dtype=float)
    for region in partition.regions():
        nodes = partition.nodes_in_region(region)
        d_base = math.inf
        d_eff = math.inf
        for mc in mesh.mcs:
            mc_node = mesh.mc_node(mc.index)
            base = sum(
                mesh.node_distance(n, mc_node) for n in nodes
            ) / len(nodes)
            d_base = min(d_base, base)
            eff = sum(
                topology.mc_distance_units(n, mc.index) for n in nodes
            ) / len(nodes)
            d_eff = min(d_eff, eff)
        if not np.isfinite(d_eff):
            raise ValueError(
                f"region {region}: no memory controller is reachable under "
                "the active fault plan"
            )
        health = _healthy_bank_fraction(partition, topology, region)
        capacities[region] = (
            (0.5 + 0.5 * health) * (1.0 + d_base) / (1.0 + d_eff)
        )
    return capacities


def llc_mac_table(
    partition: RegionPartition, mode: MacMode = MacMode.NEAREST
) -> Dict[int, AffinityVector]:
    """MAC computed from LLC-bank positions rather than core positions.

    For S-NUCA the off-chip leg of a miss starts at the home LLC bank, not
    the requesting core (Section 3.8: "instead of capturing the affinity
    between a core and an MC, we need to capture the affinity between an LLC
    and an MC").  Banks are co-located with cores in this architecture, so
    the table coincides with :func:`mac_table`; it is kept as a separate
    entry point so architectures with disjoint bank placement can override
    just this function.
    """
    return mac_table(partition, mode=mode)
