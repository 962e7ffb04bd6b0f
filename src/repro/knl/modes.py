"""KNL cluster modes as address-distribution policies.

Knights Landing's cluster modes (Section 5, "Results with Intel KNL") are,
mechanically, policies for how physical addresses are spread over the chip's
cache slices and memory interfaces:

* **all-to-all** -- addresses are uniformly hashed over all tiles' cache
  slices and all memory interfaces, with no locality between the slice and
  the memory serving a miss.
* **quadrant**  -- the chip is divided into four virtual quadrants; an
  address's cache slice lives in the same quadrant as the memory interface
  that owns the address, so the slice-to-memory leg stays local.
* **SNC-4**     -- each quadrant is exposed as a NUMA cluster: in addition
  to the quadrant guarantee, pages are allocated in the quadrant of the
  cores that use them (first-touch), maximizing locality at the price of
  concentrating traffic on intra-quadrant links.

We model these on the same 6x6-mesh machine used everywhere else (one core
per tile), by overriding the (MC, LLC-bank) selection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.memory.address import AddressLayout
from repro.memory.distribution import DataDistribution


class ClusterMode(enum.Enum):
    ALL_TO_ALL = "all-to-all"
    QUADRANT = "quadrant"
    SNC4 = "SNC-4"


def _mix(value: int) -> int:
    """Cheap deterministic integer hash (xorshift-multiply)."""
    value = (value ^ (value >> 16)) * 0x45D9F3B
    value = (value ^ (value >> 16)) * 0x45D9F3B
    return (value ^ (value >> 16)) & 0x7FFFFFFF


_MIX_MULTIPLIER = np.uint64(0x45D9F3B)


def _mix_batch(values: np.ndarray) -> np.ndarray:
    """:func:`_mix` over an integer array.

    uint64 arithmetic wraps where Python's integers grow, but every bit
    the final 31-bit mask keeps depends only on input bits below 2**64,
    so the two agree exactly.
    """
    value = values.astype(np.uint64)
    shift = np.uint64(16)
    value = (value ^ (value >> shift)) * _MIX_MULTIPLIER
    value = (value ^ (value >> shift)) * _MIX_MULTIPLIER
    return ((value ^ (value >> shift)) & np.uint64(0x7FFFFFFF)).astype(np.int64)


def quadrant_of_node(node: int, mesh_width: int, mesh_height: int) -> int:
    """Quadrant id (0..3) of a mesh node: 2x2 grid of half-meshes."""
    x, y = node % mesh_width, node // mesh_width
    qx = 0 if x < (mesh_width + 1) // 2 else 1
    qy = 0 if y < (mesh_height + 1) // 2 else 1
    return qy * 2 + qx


@dataclass(frozen=True)
class KnlDistribution(DataDistribution):
    """(MC, cache-slice) selection under a KNL cluster mode.

    For ``SNC4`` an optional first-touch table maps virtual page numbers to
    quadrants (built by :func:`first_touch_pages`); pages not in the table
    fall back to round-robin over quadrants.
    """

    mode: ClusterMode = ClusterMode.ALL_TO_ALL
    mesh_width: int = 6
    mesh_height: int = 6
    page_to_quadrant: Optional[Dict[int, int]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        nodes_by_quadrant: List[List[int]] = [[] for _ in range(4)]
        for node in range(self.mesh_width * self.mesh_height):
            quadrant = quadrant_of_node(node, self.mesh_width, self.mesh_height)
            nodes_by_quadrant[quadrant].append(node)
        object.__setattr__(self, "_quadrant_nodes", nodes_by_quadrant)
        # Corner MC of each quadrant (MC order: TL, TR, BR, BL).
        object.__setattr__(self, "_quadrant_mc", {0: 0, 1: 1, 3: 2, 2: 3})
        object.__setattr__(
            self, "_mc_quadrant", {0: 0, 1: 1, 2: 3, 3: 2}
        )
        # The same two tables as arrays for the batch lookups: quadrant ->
        # MC, and quadrant -> its nodes (padded to the largest quadrant).
        object.__setattr__(
            self, "_quadrant_mc_lut",
            np.array([self._quadrant_mc[q] for q in range(4)], dtype=np.int64),
        )
        width = max(len(nodes) for nodes in nodes_by_quadrant)
        node_table = np.zeros((4, width), dtype=np.int64)
        for quadrant, nodes in enumerate(nodes_by_quadrant):
            node_table[quadrant, : len(nodes)] = nodes
        object.__setattr__(self, "_quadrant_node_table", node_table)
        object.__setattr__(
            self, "_quadrant_sizes",
            np.array([len(nodes) for nodes in nodes_by_quadrant], dtype=np.int64),
        )

    # ------------------------------------------------------------------
    def _page_quadrant(self, addr: int) -> int:
        page = self.layout.page_number(addr)
        if self.mode is ClusterMode.SNC4 and self.page_to_quadrant is not None:
            quadrant = self.page_to_quadrant.get(page)
            if quadrant is not None:
                return quadrant
        return page % 4

    def mc_of(self, addr: int) -> int:
        if self.mode is ClusterMode.ALL_TO_ALL:
            return _mix(self.layout.page_number(addr)) % self.num_mcs
        return self._quadrant_mc[self._page_quadrant(addr)]

    def bank_of(self, addr: int) -> int:
        line = self.layout.line_number(addr)
        if self.mode is ClusterMode.ALL_TO_ALL:
            return _mix(line) % self.num_llc_banks
        nodes = self._quadrant_nodes[self._page_quadrant(addr)]
        return nodes[_mix(line) % len(nodes)]

    # -- vectorized twins (the compiler's affinity builders use these) ---
    def _page_quadrant_batch(self, pages: np.ndarray) -> np.ndarray:
        quadrants = pages % 4
        table = self.page_to_quadrant
        if self.mode is ClusterMode.SNC4 and table and len(pages):
            unique, inverse = np.unique(pages, return_inverse=True)
            looked_up = np.array(
                [table.get(page, page % 4) for page in unique.tolist()],
                dtype=np.int64,
            )
            quadrants = looked_up[inverse.reshape(-1)]
        return quadrants

    def mc_of_batch(self, addrs):
        pages = np.asarray(addrs, dtype=np.int64) >> self.layout.page_offset_bits
        if self.mode is ClusterMode.ALL_TO_ALL:
            return _mix_batch(pages) % self.num_mcs
        return self._quadrant_mc_lut[self._page_quadrant_batch(pages)]

    def bank_of_batch(self, addrs):
        addrs = np.asarray(addrs, dtype=np.int64)
        mixed = _mix_batch(addrs >> self.layout.line_offset_bits)
        if self.mode is ClusterMode.ALL_TO_ALL:
            return mixed % self.num_llc_banks
        quadrants = self._page_quadrant_batch(
            addrs >> self.layout.page_offset_bits
        )
        return self._quadrant_node_table[
            quadrants, mixed % self._quadrant_sizes[quadrants]
        ]

    def describe(self) -> str:
        return f"knl:{self.mode.value}"


def first_touch_pages(
    instance,
    iteration_sets,
    default_schedules,
    layout: AddressLayout,
    mesh_width: int,
    mesh_height: int,
    sample_iterations_per_set: int = 4,
) -> Dict[int, int]:
    """SNC-4 first-touch table: each page -> quadrant of its first toucher.

    Approximated by the quadrant of the default-schedule core that samples
    the page first, which is what Linux first-touch over an OpenMP static
    schedule produces.
    """
    table: Dict[int, int] = {}
    for nest_index, sets in iteration_sets.items():
        schedule = default_schedules[nest_index]
        dom = instance.nest_domain(nest_index)
        for iteration_set in sets:
            core = schedule[iteration_set.set_id]
            quadrant = quadrant_of_node(core, mesh_width, mesh_height)
            for bindings in iteration_set.sample(dom, sample_iterations_per_set):
                for vaddr, _ in instance.addresses_for(nest_index, bindings):
                    table.setdefault(layout.page_number(vaddr), quadrant)
    return table
