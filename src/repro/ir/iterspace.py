"""Iteration domains, linearization, and iteration sets.

The unit of scheduling in the paper is the **iteration set**: a run of
consecutive loop iterations (default size 0.25% of the nest's iterations,
Table 4).  Consecutive iterations share spatial locality, so scheduling them
together preserves row-buffer and cache-line reuse while shrinking the
mapping problem by ~400x.

Domains are rectangular (perfect nests with affine bounds); bounds may be
symbolic and are resolved against parameter bindings.  Iterations are
linearized row-major (last index fastest), matching C loop order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .symbolic import AffineExpr, Bindings, ExprLike, as_expr


@dataclass(frozen=True)
class IterationDomain:
    """A perfect loop nest's index space, possibly with symbolic bounds."""

    names: Tuple[str, ...]
    lowers: Tuple[AffineExpr, ...]
    uppers: Tuple[AffineExpr, ...]  # exclusive

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a domain needs at least one loop")
        if not (len(self.names) == len(self.lowers) == len(self.uppers)):
            raise ValueError("names/lowers/uppers length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate loop index names")

    @property
    def depth(self) -> int:
        return len(self.names)

    def resolve(self, params: Bindings) -> "ConcreteDomain":
        lowers = tuple(lo.evaluate(params) for lo in self.lowers)
        uppers = tuple(up.evaluate(params) for up in self.uppers)
        return ConcreteDomain(self.names, lowers, uppers)


def domain(*loops: Tuple[str, ExprLike, ExprLike]) -> IterationDomain:
    """Build a domain from ``(name, lower, upper_exclusive)`` triples."""
    names = tuple(name for name, _, _ in loops)
    lowers = tuple(as_expr(lo) for _, lo, _ in loops)
    uppers = tuple(as_expr(up) for _, _, up in loops)
    return IterationDomain(names, lowers, uppers)


@dataclass(frozen=True)
class ConcreteDomain:
    """A domain with integer bounds; supports linearization."""

    names: Tuple[str, ...]
    lowers: Tuple[int, ...]
    uppers: Tuple[int, ...]

    def __post_init__(self) -> None:
        for lo, up in zip(self.lowers, self.uppers):
            if up < lo:
                raise ValueError(f"empty/negative extent: [{lo}, {up})")

    @property
    def extents(self) -> Tuple[int, ...]:
        return tuple(up - lo for lo, up in zip(self.lowers, self.uppers))

    @property
    def size(self) -> int:
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    def iteration(self, linear: int) -> Dict[str, int]:
        """The iteration vector (as index-name bindings) at linear position."""
        if not 0 <= linear < self.size:
            raise IndexError(f"linear index {linear} outside domain of {self.size}")
        values: List[int] = []
        remainder = linear
        for extent in reversed(self.extents):
            values.append(remainder % extent)
            remainder //= extent
        values.reverse()
        return {
            name: lo + val
            for name, lo, val in zip(self.names, self.lowers, values)
        }

    def linearize(self, bindings: Bindings) -> int:
        linear = 0
        for name, lo, extent in zip(self.names, self.lowers, self.extents):
            value = bindings[name] - lo
            if not 0 <= value < extent:
                raise IndexError(f"{name}={bindings[name]} outside domain")
            linear = linear * extent + value
        return linear

    def iterations(self) -> Iterator[Dict[str, int]]:
        for linear in range(self.size):
            yield self.iteration(linear)


@dataclass(frozen=True)
class IterationSet:
    """Consecutive iterations ``[start, stop)`` of a linearized domain."""

    set_id: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError("iteration set must be non-empty")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def linear_range(self) -> range:
        return range(self.start, self.stop)

    def iterations(self, dom: ConcreteDomain) -> Iterator[Dict[str, int]]:
        for linear in self.linear_range():
            yield dom.iteration(linear)

    def sample(self, dom: ConcreteDomain, max_points: int) -> List[Dict[str, int]]:
        """Up to ``max_points`` evenly spaced iterations (for estimation)."""
        if max_points < 1:
            raise ValueError("max_points must be positive")
        if self.size <= max_points:
            return [dom.iteration(i) for i in self.linear_range()]
        stride = self.size / max_points
        picks = {self.start + int(k * stride) for k in range(max_points)}
        return [dom.iteration(i) for i in sorted(picks)]


def partition_iteration_sets(
    total_iterations: int,
    set_size: int = 0,
    set_fraction: float = 0.0025,
    min_size: int = 8,
) -> List[IterationSet]:
    """Split ``total_iterations`` into equal consecutive sets.

    By default the set size is 0.25% of the iteration count (Table 4); an
    explicit ``set_size`` overrides the fraction.  The final set absorbs the
    remainder ("of equal size, except perhaps for the last iteration set").
    """
    if total_iterations < 1:
        raise ValueError("need at least one iteration")
    if set_size <= 0:
        if not 0.0 < set_fraction <= 1.0:
            raise ValueError("set_fraction must be in (0, 1]")
        set_size = max(min_size, int(round(total_iterations * set_fraction)))
    sets: List[IterationSet] = []
    start = 0
    while start < total_iterations:
        stop = min(start + set_size, total_iterations)
        # Fold a tiny tail into the previous set instead of emitting a runt.
        if sets and stop - start < max(1, set_size // 4):
            last = sets.pop()
            sets.append(IterationSet(last.set_id, last.start, stop))
            break
        sets.append(IterationSet(len(sets), start, stop))
        start = stop
    return sets
