"""LRU stack (reuse) distance analysis.

The classic foundation under cache miss equations: the *stack distance* of
an access is the number of distinct cache lines touched since the previous
access to the same line.  Under LRU, an access hits in a fully-associative
cache of ``C`` lines iff its stack distance is ``< C``; for set-associative
caches the per-set distance against the associativity gives the exact
answer.  Both are provided.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

INFINITE = -1
"""Stack distance of a cold (first-touch) access."""


class StackDistanceTracker:
    """Online stack distances over a stream of line numbers.

    Uses an ordered map as the LRU stack; ``distance`` is O(stack depth) in
    the worst case but the move-to-front locality of real streams keeps it
    cheap for our workload sizes.
    """

    def __init__(self) -> None:
        self._stack: "OrderedDict[int, None]" = OrderedDict()

    def access(self, line: int) -> int:
        """Record an access; return its stack distance (-1 if cold)."""
        if line in self._stack:
            distance = 0
            for key in reversed(self._stack):
                if key == line:
                    break
                distance += 1
            self._stack.move_to_end(line)
            result = distance
        else:
            self._stack[line] = None
            result = INFINITE
        return result

    def depth(self) -> int:
        return len(self._stack)

    def reset(self) -> None:
        self._stack.clear()


def stack_distances(lines: Iterable[int]) -> List[int]:
    """Stack distance of every access in a stream of line numbers."""
    tracker = StackDistanceTracker()
    return [tracker.access(line) for line in lines]


@dataclass
class ReuseProfile:
    """Histogram of stack distances for one access stream."""

    distances: List[int] = field(default_factory=list)

    @classmethod
    def from_lines(cls, lines: Iterable[int]) -> "ReuseProfile":
        return cls(stack_distances(lines))

    @property
    def accesses(self) -> int:
        return len(self.distances)

    @property
    def cold_misses(self) -> int:
        return sum(1 for d in self.distances if d == INFINITE)

    def hits_for_capacity(self, capacity_lines: int) -> int:
        """Hits in a fully-associative LRU cache of ``capacity_lines``."""
        if capacity_lines < 0:
            raise ValueError("capacity cannot be negative")
        return sum(1 for d in self.distances if d != INFINITE and d < capacity_lines)

    def hit_fraction(self, capacity_lines: int) -> float:
        if not self.distances:
            return 0.0
        return self.hits_for_capacity(capacity_lines) / len(self.distances)

    def miss_fraction(self, capacity_lines: int) -> float:
        return 1.0 - self.hit_fraction(capacity_lines) if self.distances else 0.0


class SetAssociativeModel:
    """Exact LRU hit/miss classification for a set-associative geometry.

    A thin compile-time twin of :class:`repro.cache.cache.Cache` operating on
    line numbers: the estimator uses it to label each access hit or miss
    without touching simulator state.
    """

    def __init__(self, num_sets: int, assoc: int):
        if num_sets < 1 or assoc < 1:
            raise ValueError("sets and associativity must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: Dict[int, "OrderedDict[int, None]"] = {}

    def access(self, line: int) -> bool:
        """True on hit.  Updates LRU state."""
        idx = line % self.num_sets
        lru = self._sets.setdefault(idx, OrderedDict())
        if line in lru:
            lru.move_to_end(line)
            return True
        lru[line] = None
        if len(lru) > self.assoc:
            lru.popitem(last=False)
        return False

    def reset(self) -> None:
        self._sets.clear()
