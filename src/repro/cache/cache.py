"""Set-associative cache with true-LRU replacement.

Operates on byte addresses; the line size is a per-cache parameter because
Table 4 gives the L1 32-byte lines and the L2 64-byte lines.  The cache
returns what happened as one int -- :data:`HIT`, :data:`MISS`, or the base
address of a dirty line evicted by the miss -- and leaves all timing to the
machine model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.memory.address import is_power_of_two, log2_int

HIT = -2
""":meth:`Cache.access` result: the line was resident."""

MISS = -1
""":meth:`Cache.access` result: a miss that evicted no dirty line.  A miss
that did returns the victim's base address, which is ``>= 0``."""


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


class Cache:
    """One cache: ``size_bytes`` split into ``assoc``-way sets of lines."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int, name: str = ""):
        if not is_power_of_two(line_bytes):
            raise ValueError("line size must be a power of two")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError("size must be a multiple of assoc * line size")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = size_bytes // (assoc * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ValueError("number of sets must be a power of two")
        self._line_bits = log2_int(line_bytes)
        self._set_mask = self.num_sets - 1
        # set index -> OrderedDict[line number -> dirty bit]; LRU at the
        # front.  The tag is the full line number.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        tag = addr >> self._line_bits
        lines = self._sets.get(tag & self._set_mask)
        return lines is not None and tag in lines

    def access(self, addr: int, is_write: bool = False) -> int:
        """Access ``addr``; allocate on miss.

        Returns :data:`HIT`, :data:`MISS`, or -- for a miss that evicted a
        dirty line -- the victim's base address.
        """
        tag = addr >> self._line_bits
        lines = self._sets.get(tag & self._set_mask)
        if lines is None:
            lines = self._sets[tag & self._set_mask] = OrderedDict()
        stats = self.stats
        stats.accesses += 1
        if tag in lines:
            stats.hits += 1
            lines.move_to_end(tag)
            if is_write:
                lines[tag] = True
            return HIT
        victim = self._evict(lines)
        lines[tag] = is_write
        return victim

    def fill(self, addr: int, dirty: bool = False) -> int:
        """Insert a line without counting an access (e.g. prefetch / fill).

        Returns the base address of a dirty victim, or -1.
        """
        tag = addr >> self._line_bits
        lines = self._sets.get(tag & self._set_mask)
        if lines is None:
            lines = self._sets[tag & self._set_mask] = OrderedDict()
        if tag in lines:
            lines.move_to_end(tag)
            if dirty:
                lines[tag] = True
            return -1
        victim = self._evict(lines)
        lines[tag] = dirty
        return victim

    def _evict(self, lines: "OrderedDict[int, bool]") -> int:
        """Make room in a set; returns a dirty victim's base address or -1."""
        if len(lines) < self.assoc:
            return MISS
        victim_tag, dirty = lines.popitem(last=False)
        self.stats.evictions += 1
        if dirty:
            self.stats.dirty_evictions += 1
            return victim_tag << self._line_bits
        return MISS

    def invalidate(self, addr: int) -> bool:
        """Drop a line if present; returns True if it was there."""
        tag = addr >> self._line_bits
        lines = self._sets.get(tag & self._set_mask)
        if lines is not None and tag in lines:
            del lines[tag]
            return True
        return False

    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self._sets.values())


class BulkAccessCursor:
    """One core's whole cache walk over one chunk of its access stream.

    The chunk's line numbers and write flags are converted to Python lists
    once; :meth:`consume_hits` then walks them in stream order with one
    tag/set probe per same-line run:

    * an access to the line the previous access touched needs no probe:
      that line is resident and already most recently used;
    * any other hit moves its line to MRU, as :meth:`Cache.access` would;
    * a miss is settled where it is found: the L1 evicts from and fills
      the set just probed, and ``settle(core, paddr, is_write, victim)``
      -- :meth:`repro.cache.hierarchy.CacheHierarchy._settle_miss`, the
      same step the scalar walk takes -- settles everything below the L1
      and returns the miss's walk tuple.

    The hits between two misses leave every line resident, so their
    writes set dirty bits just before the next miss (which may evict one
    of those lines) or at the end; setting a value keeps LRU order.  The
    L1's access and hit counts are added once per chunk.  The cache state
    this leaves -- stats, LRU recency, dirty bits, LLC and directory --
    is exactly what issuing the same accesses one by one would leave.
    """

    __slots__ = ("_cache", "_core", "_settle", "_tags", "_writes", "_paddrs",
                 "paddrs")

    def __init__(
        self,
        cache: Cache,
        core: int,
        paddrs: np.ndarray,
        writes: np.ndarray,
        settle: Callable[[int, int, bool, int], Tuple],
    ):
        self._cache = cache
        self._core = core
        self._settle = settle
        self._tags = (paddrs >> cache._line_bits).tolist()
        writes = writes.tolist()
        self._writes = writes if True in writes else None
        self._paddrs = paddrs
        self.paddrs: Optional[List[int]] = None
        """The chunk's physical addresses by stream position, as a list
        once :meth:`consume_hits` has met a miss."""

    def consume_hits(self) -> List[Tuple[int, Tuple]]:
        """Apply the whole chunk to the caches; returns its L1 misses.

        Each miss is ``(pos, walk)``: its stream position and the
        ``(bank, llc_hit, llc_victim, forward, invalidate)`` tuple
        :meth:`repro.cache.hierarchy.CacheHierarchy.access` would have
        returned for it.
        """
        cache = self._cache
        sets = cache._sets
        mask = cache._set_mask
        tags = self._tags
        writes = self._writes
        paddrs = self.paddrs
        settle = self._settle
        core = self._core
        misses: List[Tuple[int, Tuple]] = []
        start = 0  # the first access after the previous miss
        last = -1  # line numbers are >= 0
        for tag in tags:
            if tag == last:
                continue
            last = tag
            lines = sets.get(tag & mask)
            if lines is not None and tag in lines:
                lines.move_to_end(tag)
                continue
            # Every access since the previous miss hit, so this line does
            # not occur among them: its first index after that miss is
            # this access.
            pos = tags.index(tag, start)
            is_write = False
            if writes is not None:
                if pos > start:
                    _mark_dirty(sets, mask, tags, writes, start, pos)
                is_write = writes[pos]
            if paddrs is None:
                paddrs = self.paddrs = self._paddrs.tolist()
            if lines is None:
                lines = sets[tag & mask] = OrderedDict()
            victim = cache._evict(lines)
            lines[tag] = is_write
            misses.append((pos, settle(core, paddrs[pos], is_write, victim)))
            start = pos + 1
        if writes is not None:
            _mark_dirty(sets, mask, tags, writes, start, len(tags))
        stats = cache.stats
        stats.accesses += len(tags)
        stats.hits += len(tags) - len(misses)
        return misses


def _mark_dirty(sets, mask, tags, writes, start, end) -> None:
    """Set the dirty bit of each write in ``[start, end)``, a run of hits."""
    for pos in compress(range(start, end), writes[start:end]):
        tag = tags[pos]
        sets[tag & mask][tag] = True
