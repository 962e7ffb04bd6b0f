"""Iteration-set-to-core assignment (Algorithms 1 and 2).

``Mapper`` turns per-iteration-set affinity vectors into a
:class:`Schedule`:

1. **Region assignment** -- each set goes to the region minimizing its
   affinity error: ``eta(MAI, MAC(R))`` for private LLCs (Algorithm 1), the
   alpha-weighted ``alpha*eta(CAI, CAC(R)) + (1-alpha)*eta(MAI, MAC(R))``
   for shared LLCs (Algorithm 2 with the Section 3.8 weighting).
2. **Load balancing** -- the donor/receiver pass of Algorithm 1 (shared by
   both organizations).
3. **Within-region placement** -- the paper assigns a set to a core of its
   region "randomly, with the only constraint that the loads of the cores in
   the region should be more or less balanced"; the ``LEAST_LOADED``
   strategy models the ~2%-better "OS option" of Section 3.9.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cache.snuca import LLCOrganization

from .affinity import AffinityVector, combined_eta, eta
from .balance import balance_regions
from .proximity import (
    MacMode,
    cac_table,
    degraded_cac_table,
    degraded_mac_table,
    llc_mac_table,
    mac_table,
    region_capacities,
)
from .regions import RegionPartition


class PlacementStrategy(enum.Enum):
    STABLE_RR = "stable_rr"              # deterministic by set id (default)
    RANDOM_BALANCED = "random_balanced"  # the paper's random choice
    LEAST_LOADED = "least_loaded"        # the "OS option" (Section 3.9)


@dataclass(frozen=True)
class SetAffinity:
    """Everything the mapper needs to know about one iteration set."""

    set_id: int
    mai: AffinityVector
    cai: Optional[AffinityVector] = None
    alpha: float = 0.0
    iterations: int = 1


@dataclass
class ProximityTables:
    """MAC/CAC proximity tables (plus the degraded-topology extras).

    A pure function of (partition, organization, mac_mode, cac_self_weight,
    fault plan): building one is the expensive part of constructing a
    :class:`Mapper`, so the compile-side cache (:mod:`repro.compile`)
    memoizes these and hands them back via ``Mapper(tables=...)``.
    """

    macs: Mapping[int, AffinityVector]
    cacs: Mapping[int, AffinityVector]
    capacity: Optional[np.ndarray] = None
    mem_dist: Optional[np.ndarray] = None
    llc_dist: Optional[np.ndarray] = None


def build_proximity_tables(
    partition: RegionPartition,
    organization: LLCOrganization,
    mac_mode: MacMode = MacMode.NEAREST,
    cac_self_weight: float = 0.5,
    faults=None,
) -> ProximityTables:
    """Construct the proximity tables one :class:`Mapper` consumes."""
    if faults is not None:
        # Banks are co-located with cores, so the shared-LLC (bank-
        # anchored) and private (core-anchored) MAC coincide here just
        # as they do in the pristine tables.
        mem_dist, llc_dist = _degraded_distance_tables(partition, faults)
        return ProximityTables(
            macs=degraded_mac_table(partition, faults, mode=mac_mode),
            cacs=degraded_cac_table(
                partition, faults, self_weight=cac_self_weight
            ),
            capacity=region_capacities(partition, faults),
            mem_dist=mem_dist,
            llc_dist=llc_dist,
        )
    if organization is LLCOrganization.SHARED:
        # S-NUCA: the off-chip leg starts at the LLC bank (Section 3.8).
        macs = llc_mac_table(partition, mode=mac_mode)
    else:
        macs = mac_table(partition, mode=mac_mode)
    return ProximityTables(
        macs=macs, cacs=cac_table(partition, self_weight=cac_self_weight)
    )


@dataclass
class Schedule:
    """The mapper's product: where every iteration set runs."""

    set_to_core: Dict[int, int]
    set_to_region: Dict[int, int]
    moved_fraction: float = 0.0
    errors: Optional[np.ndarray] = None

    def core_of(self, set_id: int) -> int:
        return self.set_to_core[set_id]

    def sets_on_core(self, core: int) -> List[int]:
        return sorted(s for s, c in self.set_to_core.items() if c == core)

    def core_loads(self, num_cores: int) -> List[int]:
        loads = [0] * num_cores
        for core in self.set_to_core.values():
            loads[core] += 1
        return loads


class Mapper:
    """Location-aware iteration-set mapper for one machine configuration."""

    def __init__(
        self,
        partition: RegionPartition,
        organization: LLCOrganization,
        mac_mode: MacMode = MacMode.NEAREST,
        cac_self_weight: float = 0.5,
        placement: PlacementStrategy = PlacementStrategy.STABLE_RR,
        balance: bool = True,
        alpha_weighting: bool = True,
        seed: int = 11,
        events=None,
        faults=None,
        tables: Optional[ProximityTables] = None,
    ):
        self.partition = partition
        self.organization = organization
        self.placement = placement
        self.balance = balance
        # Optional repro.obs.EventStream: assign() narrates its decisions
        # (chosen region + eta per set, donor/receiver balance moves).
        self.events = events
        # Algorithm 2's pseudo-code sums eta1 + eta2 unweighted; the text
        # (Section 3.8) weights them by alpha.  The weighted form is the
        # default; the unweighted form is kept for the ablation study.
        self.alpha_weighting = alpha_weighting
        self._rng = np.random.default_rng(seed)
        # Degradation-aware mapping: with a repro.faults.DegradedTopology
        # attached, MAC/CAC come from effective post-fault distances and
        # the balancer's targets follow effective region capacities.
        self.faults = faults
        # A caller holding memoized tables (repro.compile) passes them in;
        # they MUST match this constructor's parameters or errors/capacity
        # would silently disagree with the topology.
        if tables is None:
            tables = build_proximity_tables(
                partition,
                organization,
                mac_mode=mac_mode,
                cac_self_weight=cac_self_weight,
                faults=faults,
            )
        self._macs = tables.macs
        self._cacs = tables.cacs
        self._capacity = tables.capacity
        if faults is not None:
            # Effective distance matrices back predicted_cost(), which the
            # compiler uses to score this mapper's schedule against the
            # oblivious candidate under the post-fault topology.
            self._mem_dist = tables.mem_dist
            self._llc_dist = tables.llc_dist

    # ------------------------------------------------------------------
    @property
    def macs(self) -> Mapping[int, AffinityVector]:
        return self._macs

    @property
    def cacs(self) -> Mapping[int, AffinityVector]:
        return self._cacs

    # ------------------------------------------------------------------
    def set_error(self, affinity: SetAffinity, region: int) -> float:
        """Affinity error of placing one set in one region."""
        return self._set_error_with(affinity, region, self._macs, self._cacs)

    def _set_error_with(
        self, affinity: SetAffinity, region: int, macs, cacs
    ) -> float:
        eta_m = eta(affinity.mai, macs[region])
        if self.organization is LLCOrganization.PRIVATE:
            return eta_m
        if affinity.cai is None:
            raise ValueError(
                f"set {affinity.set_id}: shared-LLC mapping needs a CAI vector"
            )
        eta_c = eta(affinity.cai, cacs[region])
        if not self.alpha_weighting:
            # Algorithm 2 verbatim: argmin over eta1 + eta2.
            return eta_c + eta_m
        return combined_eta(eta_c, eta_m, affinity.alpha)

    def _error_matrix_with(
        self, affinities: Sequence[SetAffinity], macs, cacs
    ) -> np.ndarray:
        # Broadcast eta() over every (set, region) pair at once.  The
        # last-axis sum over a C-contiguous block reduces in the same
        # pairwise order as the 1-D sum inside eta(), so this is
        # bit-identical to the per-pair scalar loop it replaces.
        n_regions = self.partition.num_regions
        mai = _stack_vectors((a.mai for a in affinities), "MAI")
        mac = _stack_vectors((macs[r] for r in range(n_regions)), "MAC")
        if mai.shape[1] != mac.shape[1]:
            raise ValueError(
                f"vector length mismatch: {mai.shape[1:]} vs {mac.shape[1:]}"
            )
        eta_m = _eta_matrix(mai, mac)
        if self.organization is LLCOrganization.PRIVATE:
            return eta_m
        for affinity in affinities:
            if affinity.cai is None:
                raise ValueError(
                    f"set {affinity.set_id}: shared-LLC mapping needs a "
                    "CAI vector"
                )
        cai = _stack_vectors((a.cai for a in affinities), "CAI")
        cac = _stack_vectors((cacs[r] for r in range(n_regions)), "CAC")
        if cai.shape[1] != cac.shape[1]:
            raise ValueError(
                f"vector length mismatch: {cai.shape[1:]} vs {cac.shape[1:]}"
            )
        eta_c = _eta_matrix(cai, cac)
        if not self.alpha_weighting:
            # Algorithm 2 verbatim: argmin over eta1 + eta2.
            return eta_c + eta_m
        alpha = np.asarray([a.alpha for a in affinities], dtype=float)
        if np.any(alpha < 0.0) or np.any(alpha > 1.0):
            raise ValueError("alpha must be within [0, 1]")
        alpha = alpha[:, None]
        return alpha * eta_c + (1.0 - alpha) * eta_m

    # ------------------------------------------------------------------
    def assign(
        self,
        affinities: Sequence[SetAffinity],
        nest_index: Optional[int] = None,
    ) -> Schedule:
        """Run the full pipeline: region assignment, balancing, placement.

        ``nest_index`` only labels the emitted telemetry events (callers
        that map one nest at a time pass it so decision streams can be
        joined back to the program structure).
        """
        if not affinities:
            return Schedule({}, {}, 0.0)
        ids = [a.set_id for a in affinities]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate iteration set ids")
        set_to_region, errors, id_errors, transfers, moved_fraction = (
            self._region_pass(
                affinities, ids, self._macs, self._cacs, self._capacity
            )
        )
        set_to_core = self._place_within_regions(set_to_region, affinities)
        if self.events is not None and self.events.enabled:
            self._emit_decisions(
                nest_index, affinities, errors, set_to_region, set_to_core,
                transfers, id_errors, moved_fraction,
            )
        return Schedule(
            set_to_core=set_to_core,
            set_to_region=set_to_region,
            moved_fraction=moved_fraction,
            errors=errors,
        )

    def _region_pass(self, affinities, ids, macs, cacs, capacity):
        """Algorithm 1/2 argmin + load balancing with one table set."""
        errors = self._error_matrix_with(affinities, macs, cacs)
        # Algorithm 1/2: argmin over regions, first minimum wins.
        set_to_region = {
            affinity.set_id: int(np.argmin(errors[i]))
            for i, affinity in enumerate(affinities)
        }
        moved_fraction = 0.0
        id_errors = _reindex_errors(errors, ids)
        transfers = []
        if self.balance:
            # Balance on a set-id-indexed error view.
            result = balance_regions(
                set_to_region, id_errors, self.partition, capacity=capacity,
            )
            set_to_region = result.set_to_region
            moved_fraction = result.moved_fraction()
            transfers = result.transfers
        return set_to_region, errors, id_errors, transfers, moved_fraction

    def predicted_cost(
        self,
        set_to_region: Dict[int, int],
        affinities: Sequence[SetAffinity],
    ) -> float:
        """Iteration-weighted expected NoC distance of one assignment.

        Each set pays its traffic-weighted effective distance: the LLC leg
        (CAI over per-region distances) and the memory leg (MAI over
        per-MC distances), alpha-combined exactly as the mapping error is.
        Distances come from the degraded topology, so detours, throttled
        links and offline MCs all price in.  Only available on mappers
        constructed with ``faults``.
        """
        if self.faults is None:
            raise ValueError("predicted_cost needs a fault-aware mapper")
        total = 0.0
        for affinity in affinities:
            region = set_to_region[affinity.set_id]
            mem = _leg_cost(affinity.mai, self._mem_dist[region])
            if (
                self.organization is LLCOrganization.SHARED
                and affinity.cai is not None
            ):
                llc = _leg_cost(affinity.cai, self._llc_dist[region])
                leg = affinity.alpha * llc + (1.0 - affinity.alpha) * mem
            else:
                leg = mem
            total += float(affinity.iterations) * leg
        return total

    def _emit_decisions(
        self, nest_index, affinities, errors, set_to_region, set_to_core,
        transfers, id_errors, moved_fraction,
    ) -> None:
        """Narrate one assign() into the event stream (decision level)."""
        emit = self.events.emit
        for i, affinity in enumerate(affinities):
            set_id = affinity.set_id
            region = set_to_region[set_id]
            emit(
                "mapper.assign",
                nest=nest_index,
                set=set_id,
                region=region,
                argmin_region=int(np.argmin(errors[i])),
                eta=round(float(errors[i, region]), 6),
                core=set_to_core[set_id],
                iterations=affinity.iterations,
            )
        for set_id, donor, receiver in transfers:
            emit(
                "balance.move",
                nest=nest_index,
                set=set_id,
                donor=donor,
                receiver=receiver,
                regret=round(
                    float(id_errors[set_id, receiver]
                          - id_errors[set_id, donor]), 6,
                ),
            )
        emit(
            "mapper.summary",
            nest=nest_index,
            sets=len(affinities),
            moved=len(transfers),
            moved_fraction=round(moved_fraction, 6),
        )

    # ------------------------------------------------------------------
    def _place_within_regions(
        self,
        set_to_region: Dict[int, int],
        affinities: Sequence[SetAffinity],
    ) -> Dict[int, int]:
        sizes = {a.set_id: a.iterations for a in affinities}
        by_region: Dict[int, List[int]] = {}
        for set_id, region in set_to_region.items():
            by_region.setdefault(region, []).append(set_id)
        set_to_core: Dict[int, int] = {}
        for region, members in sorted(by_region.items()):
            cores = self.partition.nodes_in_region(region)
            members = sorted(members)
            if self.placement is PlacementStrategy.STABLE_RR:
                # Deterministic: deal sets over the region's cores in set-id
                # order.  Unlike the paper's random choice this keeps the
                # set -> core relation consistent across loop nests, so a
                # set that lands in the same region in two nests reuses the
                # same core's private caches (the round-robin baseline gets
                # this alignment for free; losing it would hand the
                # baseline an artificial advantage).
                for k, set_id in enumerate(members):
                    set_to_core[set_id] = cores[k % len(cores)]
            elif self.placement is PlacementStrategy.RANDOM_BALANCED:
                # Random order, then round-robin over the cores: random
                # choice under the "loads more or less balanced" constraint.
                order = list(members)
                self._rng.shuffle(order)
                for k, set_id in enumerate(order):
                    set_to_core[set_id] = cores[k % len(cores)]
            else:
                # Least-loaded by iteration count (the OS option).
                load = {core: 0 for core in cores}
                for set_id in sorted(
                    members, key=lambda s: -sizes.get(s, 1)
                ):
                    core = min(load, key=lambda c: (load[c], c))
                    set_to_core[set_id] = core
                    load[core] += sizes.get(set_id, 1)
        return set_to_core


FAULT_CANDIDATE_MARGIN_OBSERVED = 0.02
"""Relative predicted-cost improvement the fault-aware candidate must show
over the oblivious fallback when its affinities are *observed* (the
inspector path: exact per-set MAI/CAI measured on the degraded machine).
The distance model prices detours and throttles faithfully but not
queueing, so sub-percent predicted margins are noise; demanding a real
margin keeps "fault-aware never worse than oblivious" true in simulation,
not just in the model."""

FAULT_CANDIDATE_MARGIN_ESTIMATED = 0.25
"""The same bar for the compile-time path, whose affinities come from
sampled CME estimates.  Estimation error stacks on top of the model's
queueing blindness -- a concentrated post-fault placement can look far
cheaper by distance yet saturate the few links feeding the surviving
resources -- so the aware candidate must win by a wide margin before the
compiler abandons the known-safe oblivious schedule."""

_UNREACHABLE_COST = 1e9
"""Stand-in distance for unreachable targets in candidate scoring.  Both
candidates price an unreachable-but-touched target identically, so the
tie-break (prefer oblivious) decides and no inf/nan arithmetic occurs."""


def _leg_cost(weights: AffinityVector, dists: np.ndarray) -> float:
    """Traffic-weighted mean distance of one leg (LLC or memory)."""
    weights = np.asarray(weights, dtype=float)
    mask = weights > 0
    if not mask.any():
        return 0.0
    d = np.where(np.isfinite(dists), dists, _UNREACHABLE_COST)
    return float(np.sum(weights[mask] * d[mask]))


def _degraded_distance_tables(partition, topology):
    """Effective per-region distance matrices under a degraded topology.

    Returns ``(mem, llc)``: ``mem[r, m]`` is the mean effective distance
    (in hop units) from region ``r``'s nodes to MC ``m`` (``inf`` when the
    MC is offline); ``llc[r, q]`` the mean node-pair distance between
    regions ``r`` and ``q``.
    """
    mesh = partition.mesh
    num_mcs = len(mesh.mcs)
    n = partition.num_regions
    region_nodes = [partition.nodes_in_region(r) for r in range(n)]
    mem = np.zeros((n, num_mcs), dtype=float)
    llc = np.zeros((n, n), dtype=float)
    for r in range(n):
        nodes = region_nodes[r]
        for mc in range(num_mcs):
            mem[r, mc] = float(np.mean(
                [topology.mc_distance_units(node, mc) for node in nodes]
            ))
        for q in range(n):
            llc[r, q] = float(np.mean([
                topology.distance_units(a, b)
                for a in nodes for b in region_nodes[q]
            ]))
    return mem, llc


def _stack_vectors(vectors, label: str) -> np.ndarray:
    """Rows of equal-length affinity vectors as one float64 matrix."""
    try:
        return np.asarray(list(vectors), dtype=float)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"{label} vectors differ in length") from exc


def _eta_matrix(rows: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """``eta(rows[i], tables[r])`` for every pair, bit-exactly.

    ``np.abs(...)`` materializes a C-contiguous (sets, regions, L) array,
    so the axis=2 reduction sums each contiguous length-L block with the
    same pairwise algorithm the scalar ``eta`` uses on its 1-D operand.
    """
    diffs = np.abs(rows[:, None, :] - tables[None, :, :])
    return diffs.sum(axis=2) / rows.shape[1]


def _reindex_errors(errors: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    """View the error matrix indexed by set id rather than position."""
    max_id = max(ids)
    out = np.full((max_id + 1, errors.shape[1]), np.inf)
    for pos, set_id in enumerate(ids):
        out[set_id] = errors[pos]
    return out
