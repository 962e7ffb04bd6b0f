"""Two-level cache hierarchy: per-node L1s over private or S-NUCA L2 banks.

``CacheHierarchy`` owns the cache arrays and the home-bank directory and
answers one question per access: *which components does this access touch,
and what spill traffic does it create?*  The answer is ``None`` for an L1
hit and one tuple of ints otherwise; all latency/NoC accounting lives in
:mod:`repro.sim.machine`, which interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cache import HIT, BulkAccessCursor, Cache
from .coherence import Directory
from .snuca import LLCOrganization, SnucaMapper


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int

    def build(self, name: str) -> Cache:
        return Cache(self.size_bytes, self.assoc, self.line_bytes, name=name)


DEFAULT_L1 = CacheConfig(size_bytes=16 * 1024, assoc=8, line_bytes=32)
DEFAULT_L2 = CacheConfig(size_bytes=512 * 1024, assoc=16, line_bytes=64)


class CacheHierarchy:
    """All caches of a machine plus the coherence directory."""

    def __init__(
        self,
        num_nodes: int,
        snuca: SnucaMapper,
        l1_config: CacheConfig = DEFAULT_L1,
        l2_config: CacheConfig = DEFAULT_L2,
    ):
        self.num_nodes = num_nodes
        self.snuca = snuca
        self.l1_config = l1_config
        self.l2_config = l2_config
        self._l1s: List[Cache] = [
            l1_config.build(name=f"L1[{i}]") for i in range(num_nodes)
        ]
        self._llcs: List[Cache] = [
            l2_config.build(name=f"L2[{i}]") for i in range(num_nodes)
        ]
        self._directory = Directory()
        self._llc_line_mask = ~(l2_config.line_bytes - 1)
        self._l1_offsets = tuple(
            range(0, l2_config.line_bytes, l1_config.line_bytes)
        )

    # ------------------------------------------------------------------
    def l1(self, node: int) -> Cache:
        return self._l1s[node]

    def llc(self, bank: int) -> Cache:
        return self._llcs[bank]

    @property
    def directory(self) -> Directory:
        return self._directory

    @property
    def organization(self) -> LLCOrganization:
        return self.snuca.organization

    # ------------------------------------------------------------------
    def access(
        self, core: int, paddr: int, is_write: bool
    ) -> Optional[Tuple[int, bool, int, int, Tuple[int, ...]]]:
        """Walk one access through L1, home LLC bank and (logically) memory.

        Returns ``None`` on an L1 hit.  An L1 miss returns
        ``(bank, llc_hit, llc_victim, forward, invalidate)``: the home
        bank consulted, whether it had the line, the base address of a
        dirty line it evicted (-1 for none), the L1 holding a dirty copy
        that forwards the data (-1 for none), and the sorted nodes whose
        copies a write invalidated.  Every cache-state change of the
        access is made here; :meth:`repro.sim.machine.Manycore.access`
        only times it.  This is the reference engine's walk;
        :meth:`l1_bulk_cursor` settles a whole chunk the same way.
        """
        l1_victim = self._l1s[core].access(paddr, is_write)
        if l1_victim == HIT:
            return None
        return self._settle_miss(core, paddr, is_write, l1_victim)

    def _settle_miss(
        self, core: int, paddr: int, is_write: bool, l1_victim: int
    ) -> Tuple[int, bool, int, int, Tuple[int, ...]]:
        """Everything below the L1 for one L1 miss that already filled
        the requester's L1 (evicting ``l1_victim``, a dirty line's base
        address or -1): home bank, LLC, directory, the dirty victim's
        write-down, and dropping remote L1 copies on a write."""
        bank = self.snuca.home_bank(paddr, core)
        llc_victim = self._llcs[bank].access(paddr, is_write)
        llc_hit = llc_victim == HIT
        if llc_hit:
            llc_victim = -1
        line_mask = self._llc_line_mask
        line = paddr & line_mask
        if is_write:
            forward, invalidate = self._directory.write(line, core)
        else:
            forward = self._directory.read(line, core)
            invalidate = ()
        # The L1 dirty victim is written down into its own home bank; the
        # machine charges the traffic, here we just keep state coherent.
        if l1_victim >= 0:
            victim_bank = self.snuca.home_bank(l1_victim, core)
            self._llcs[victim_bank].fill(l1_victim, dirty=True)
            self._directory.evict(l1_victim & line_mask, core)
        # One LLC line can cover several (smaller) L1 lines; a write drops
        # them all from every remote sharer.
        for node in invalidate:
            l1 = self._l1s[node]
            for offset in self._l1_offsets:
                l1.invalidate(line + offset)
        return bank, llc_hit, llc_victim, forward, invalidate

    def l1_bulk_cursor(
        self, core: int, paddrs: np.ndarray, writes: np.ndarray
    ) -> BulkAccessCursor:
        """The fast engine's cache walk over one chunk of ``core``'s stream.

        :meth:`BulkAccessCursor.consume_hits` applies every access of the
        chunk in stream order -- hits in ``core``'s L1, and each miss
        through :meth:`_settle_miss` like :meth:`access` -- and returns
        the misses.  Nothing in this package reads time, and only the
        issuing core runs during its chunk, so settling the whole chunk
        before the machine times its misses leaves the same state as
        interleaving the two access by access.
        """
        return BulkAccessCursor(
            self._l1s[core], core, paddrs, writes, self._settle_miss
        )

    # ------------------------------------------------------------------
    def aggregate_l1_stats(self) -> Tuple[int, int]:
        """(accesses, hits) summed over all L1s."""
        accesses = sum(c.stats.accesses for c in self._l1s)
        hits = sum(c.stats.hits for c in self._l1s)
        return accesses, hits

    def aggregate_llc_stats(self) -> Tuple[int, int]:
        accesses = sum(c.stats.accesses for c in self._llcs)
        hits = sum(c.stats.hits for c in self._llcs)
        return accesses, hits

    def per_node_l1_stats(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node L1 ``(accesses, hits)`` vectors (tile heatmaps).

        A core only ever touches its own L1, so ``accesses[node]`` is also
        the count of memory references the core at ``node`` issued -- the
        per-tile access heatmap.  Both engine modes maintain these counters
        natively (the bulk cursor adds whole hit runs at once).
        """
        accesses = np.fromiter(
            (c.stats.accesses for c in self._l1s),
            dtype=np.int64, count=self.num_nodes,
        )
        hits = np.fromiter(
            (c.stats.hits for c in self._l1s),
            dtype=np.int64, count=self.num_nodes,
        )
        return accesses, hits

    def per_bank_llc_stats(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bank LLC ``(requests, hits)`` vectors (bank heatmaps)."""
        accesses = np.fromiter(
            (c.stats.accesses for c in self._llcs),
            dtype=np.int64, count=self.num_nodes,
        )
        hits = np.fromiter(
            (c.stats.hits for c in self._llcs),
            dtype=np.int64, count=self.num_nodes,
        )
        return accesses, hits
