"""Data-layout optimization baseline (DO, Ding et al. [22]).

Figure 13 compares the paper's computation mapping (LA) against a data
layout scheme that reduces off-chip traffic by choosing where data lives
rather than where computation runs.  Mechanically, DO picks a *single*
program-wide placement per page: each page is re-homed so that the memory
controller serving it is the one nearest to the cores that touch it most
under the default round-robin computation mapping.

We realize DO as a translation layer: virtual pages are remapped onto
physical pages whose page-number residue selects the desired MC (the same
bits the round-robin interleaving uses).  Because one placement must serve
the whole program, nests that want conflicting placements fight each other
-- the structural limitation the paper calls out ("a practical scheme needs
to select a single layout for the entire program").  LA+DO composes the
remap with the location-aware schedule.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.ir.iterspace import IterationSet
from repro.ir.loops import ProgramInstance
from repro.memory.address import AddressLayout
from repro.memory.distribution import DataDistribution, Granularity
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class PageRemapTranslation:
    """VA->PA translation implementing a per-page MC re-homing.

    ``remap[vpn]`` holds the physical page number chosen for a virtual
    page; unmapped pages translate identically.  Offsets within a page are
    preserved, so intra-page locality (row-buffer, cache lines) is intact.
    """

    layout: AddressLayout
    remap: Dict[int, int]

    def translate(self, vaddr: int) -> int:
        vpn = self.layout.page_number(vaddr)
        ppn = self.remap.get(vpn, vpn)
        return self.layout.compose(ppn, self.layout.page_offset(vaddr))

    def translate_batch(self, vaddrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (the mapping is stateless)."""
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        bits = self.layout.page_offset_bits
        vpns = vaddrs >> bits
        uniq = np.unique(vpns)
        ppn_of_uniq = np.array(
            [self.remap.get(int(vpn), int(vpn)) for vpn in uniq],
            dtype=np.int64,
        )
        ppns = ppn_of_uniq[np.searchsorted(uniq, vpns)]
        return (ppns << bits) | (vaddrs & (self.layout.page_bytes - 1))

    @property
    def page_faults(self) -> int:
        return 0


def _nearest_mc_of_core(mesh: Mesh2D, core: int) -> int:
    return mesh.nearest_mc(core)


def build_layout_remap(
    instance: ProgramInstance,
    iteration_sets: Dict[int, List[IterationSet]],
    default_schedules: Dict[int, Dict[int, int]],
    mesh: Mesh2D,
    distribution: DataDistribution,
    sample_iterations_per_set: int = 4,
) -> PageRemapTranslation:
    """Choose one MC per accessed page and build the remap.

    For every page we count which MC the default-mapped accessing cores
    would prefer (their nearest MC); the page is then re-homed to the
    majority preference.  Physical page numbers are assigned per MC class
    so that two pages never collide.
    """
    layout = distribution.layout
    num_mcs = distribution.num_mcs
    if distribution.mc_granularity is not Granularity.PAGE:
        # Cache-line interleaving spreads each page over all MCs; page
        # re-homing cannot help, which is the honest answer for that config.
        return PageRemapTranslation(layout=layout, remap={})

    votes: Dict[int, Counter] = defaultdict(Counter)
    for nest_index, sets in iteration_sets.items():
        schedule = default_schedules[nest_index]
        dom = instance.nest_domain(nest_index)
        for iteration_set in sets:
            core = schedule[iteration_set.set_id]
            preferred = _nearest_mc_of_core(mesh, core)
            for bindings in iteration_set.sample(dom, sample_iterations_per_set):
                for vaddr, _ in instance.addresses_for(nest_index, bindings):
                    votes[layout.page_number(vaddr)][preferred] += 1

    # Assign physical pages: for each target MC keep a bump pointer over the
    # pages whose number maps to that MC under round-robin interleaving.
    next_slot = {mc: mc for mc in range(num_mcs)}
    remap: Dict[int, int] = {}
    used = set()
    for vpn in sorted(votes):
        target_mc = votes[vpn].most_common(1)[0][0]
        ppn = next_slot[target_mc]
        while ppn in used:
            ppn += num_mcs
        remap[vpn] = ppn
        used.add(ppn)
        next_slot[target_mc] = ppn + num_mcs
    return PageRemapTranslation(layout=layout, remap=remap)
