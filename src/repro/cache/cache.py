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
from itertools import compress, islice
from typing import Dict

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

    def bulk_cursor(self, addrs: np.ndarray, writes: np.ndarray) -> "BulkAccessCursor":
        """Build a :class:`BulkAccessCursor` over a sequential access stream."""
        return BulkAccessCursor(self, addrs, writes)

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
    """Applies the hit portions of a sequential access stream in bulk.

    The stream's line numbers and write flags are converted to Python lists
    once; :meth:`consume_hits` then walks them with one tag/set probe per
    same-line run instead of one :meth:`Cache.access` call per reference.
    The resulting cache state -- stats, LRU recency, dirty bits -- is
    exactly what issuing the same accesses one by one would leave behind:

    * an access to the line the previous access touched needs no probe:
      that line is resident and already most recently used, so the
      scalar walk's ``move_to_end`` would be a no-op;
    * accesses are replayed in stream order, so lines end up MRU-ordered by
      their last access, as with a scalar walk;
    * a line gets its dirty bit from any access that writes it.

    The cursor stops *before* the first access whose line is not resident:
    that access is a guaranteed miss (hits never change residency) and must
    be replayed through the owner's scalar path, after which
    :meth:`advance_miss` re-synchronizes the cursor.  The next
    :meth:`consume_hits` probes the just-filled line again, which simply
    succeeds.
    """

    __slots__ = ("_cache", "_tags", "_writes", "pos")

    def __init__(self, cache: Cache, addrs: np.ndarray, writes: np.ndarray):
        self._cache = cache
        self._tags = (addrs >> cache._line_bits).tolist()
        writes = writes.tolist()
        self._writes = writes if True in writes else None
        self.pos = 0

    def consume_hits(self) -> int:
        """Apply hits from the cursor up to the next L1 miss (or the end).

        Returns the number of accesses consumed; ``pos`` advances past
        them.  A return of 0 with ``pos < len(stream)`` means the access
        at ``pos`` misses.
        """
        cache = self._cache
        sets = cache._sets
        mask = cache._set_mask
        tags = self._tags
        start = self.pos
        end = len(tags)
        last = -1  # line numbers are >= 0
        for tag in islice(tags, start, None):
            if tag == last:
                continue
            lineset = sets.get(tag & mask)
            if lineset is None or tag not in lineset:
                # Every earlier access of this walk hit, so this line does
                # not occur before the miss: its first index is the miss.
                end = tags.index(tag, start)
                break
            lineset.move_to_end(tag)
            last = tag
        self.pos = end
        hits = end - start
        if hits:
            writes = self._writes
            if writes is not None:
                # Every consumed line is still resident, so dirty bits can
                # be set after the walk: setting a value keeps LRU order.
                for pos in compress(range(start, end), writes[start:end]):
                    tag = tags[pos]
                    sets[tag & mask][tag] = True
            stats = cache.stats
            stats.accesses += hits
            stats.hits += hits
        return hits

    def advance_miss(self) -> None:
        """Step over one access that was replayed through the scalar path."""
        self.pos += 1
