"""Spatial accumulators: *where* on the mesh traffic went.

One :class:`SpatialAccumulators` instance holds per-tile / per-LLC-bank /
per-MC / per-link counters for one machine.  Two recording styles feed it:

* **live streams** -- the execution engine bins each chunk's home banks
  with one vectorized ``np.bincount`` (:meth:`record_bank_touches`), and
  the network adds each packet's flits to the links it crosses
  (:meth:`record_link`).  Neither forces the batched fast path back to a
  scalar walk.
* **component snapshots** -- per-node L1, per-bank LLC, per-MC and DRAM
  counters already maintained by the components are copied in by
  :meth:`~repro.sim.machine.Manycore.collect_spatial` at read time.

Both engine modes ("fast" and "reference") must leave field-identical
contents behind; ``tests/sim/test_engine_equivalence.py`` enforces it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

Link = Tuple[int, int]


class SpatialAccumulators:
    """Per-location traffic counters of one machine."""

    def __init__(self, num_nodes: int, num_mcs: int):
        if num_nodes < 1 or num_mcs < 1:
            raise ValueError("need at least one node and one MC")
        self.num_nodes = num_nodes
        self.num_mcs = num_mcs
        # Live stream accumulators (engine / network recorded).
        self.bank_touches = np.zeros(num_nodes, dtype=np.int64)
        """References homed at each LLC bank (hits and misses alike)."""
        self.link_flits: Dict[Link, int] = {}
        """Flits carried per directed mesh link."""
        # Component snapshots (refreshed by Manycore.collect_spatial).
        self.tile_accesses = np.zeros(num_nodes, dtype=np.int64)
        """Memory references issued by the core at each tile (== L1 accesses)."""
        self.tile_l1_hits = np.zeros(num_nodes, dtype=np.int64)
        self.bank_requests = np.zeros(num_nodes, dtype=np.int64)
        """L1-miss requests arriving at each LLC bank."""
        self.bank_hits = np.zeros(num_nodes, dtype=np.int64)
        self.mc_requests = np.zeros(num_mcs, dtype=np.int64)
        self.mc_queue_delay = np.zeros(num_mcs, dtype=np.int64)
        """Cumulative queueing cycles per MC (queue-pressure heatmap)."""

    # -- live recording --------------------------------------------------
    def record_bank_touches(self, banks: np.ndarray) -> None:
        """Bin one batched stream of home-bank indices (vectorized)."""
        if len(banks) == 0:
            return
        self.bank_touches += np.bincount(banks, minlength=self.num_nodes)

    def record_link(self, link: Link, flits: int) -> None:
        self.link_flits[link] = self.link_flits.get(link, 0) + flits

    # -- derived views ---------------------------------------------------
    @property
    def tile_l1_misses(self) -> np.ndarray:
        return self.tile_accesses - self.tile_l1_hits

    def link_matrix(self) -> List[Tuple[Link, int]]:
        """Links sorted by descending flit count."""
        return sorted(self.link_flits.items(), key=lambda kv: (-kv[1], kv[0]))

    def node_link_load(self) -> np.ndarray:
        """Flits leaving each node (a per-tile proxy for link pressure)."""
        load = np.zeros(self.num_nodes, dtype=np.int64)
        for (src, _dst), flits in self.link_flits.items():
            load[src] += flits
        return load

    # -- invariants ------------------------------------------------------
    def reconcile(self, stats) -> List[str]:
        """Cross-check accumulator totals against a :class:`RunStats`.

        Returns human-readable violation strings (empty == consistent).
        Used as an always-on invariant check in debug runs: the telemetry
        layer must *re-derive* the scalar stats, never disagree with them.
        """
        checks = [
            ("tile accesses == L1 accesses",
             int(self.tile_accesses.sum()), stats.l1_accesses),
            ("tile L1 hits == L1 hits",
             int(self.tile_l1_hits.sum()), stats.l1_hits),
            ("L1 hits + misses == accesses",
             int(self.tile_l1_hits.sum() + self.tile_l1_misses.sum()),
             stats.l1_accesses),
            ("bank requests == LLC accesses",
             int(self.bank_requests.sum()), stats.llc_accesses),
            ("bank hits == LLC hits",
             int(self.bank_hits.sum()), stats.llc_hits),
            ("per-MC requests sum to LLC misses",
             int(self.mc_requests.sum()),
             stats.llc_accesses - stats.llc_hits),
            ("per-MC requests == DRAM accesses",
             int(self.mc_requests.sum()), stats.dram_accesses),
        ]
        if self.bank_touches.any():
            checks.append(
                ("bank touches == L1 accesses",
                 int(self.bank_touches.sum()), stats.l1_accesses)
            )
        return [
            f"{label}: {lhs} != {rhs}"
            for label, lhs, rhs in checks
            if lhs != rhs
        ]

    # -- serialization / comparison --------------------------------------
    def as_dict(self) -> dict:
        return {
            "tile_accesses": self.tile_accesses.tolist(),
            "tile_l1_hits": self.tile_l1_hits.tolist(),
            "bank_touches": self.bank_touches.tolist(),
            "bank_requests": self.bank_requests.tolist(),
            "bank_hits": self.bank_hits.tolist(),
            "mc_requests": self.mc_requests.tolist(),
            "mc_queue_delay": self.mc_queue_delay.tolist(),
            "link_flits": {
                f"{src}->{dst}": flits
                for (src, dst), flits in sorted(self.link_flits.items())
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpatialAccumulators):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return (
            f"SpatialAccumulators(nodes={self.num_nodes}, mcs={self.num_mcs}, "
            f"accesses={int(self.tile_accesses.sum())}, "
            f"links={len(self.link_flits)})"
        )
