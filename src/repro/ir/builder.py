"""Convenience DSL for writing loop nests.

Workloads read like the code they model::

    N = Param("N")
    i, j = Idx("i"), Idx("j")
    A, B = declare("A", N), declare("B", N)
    nest = (
        nest_builder("axpy")
        .loop("i", 0, N)
        .reads(B(i))
        .writes(A(i))
        .compute(2)
        .build()
    )
"""

from __future__ import annotations

from typing import List, Tuple

from .arrays import AffineIndex
from .iterspace import domain
from .loops import LoopNest
from .refs import AffineAccess
from .symbolic import ExprLike


class NestBuilder:
    """Fluent builder for :class:`LoopNest`."""

    def __init__(self, name: str):
        self._name = name
        self._loops: List[Tuple[str, ExprLike, ExprLike]] = []
        self._refs: List[object] = []
        self._compute = 4
        self._parallel = True

    def loop(self, name: str, lower: ExprLike, upper: ExprLike) -> "NestBuilder":
        """Add one loop level (outermost first); ``upper`` is exclusive."""
        self._loops.append((name, lower, upper))
        return self

    def reads(self, *indices: AffineIndex) -> "NestBuilder":
        for index in indices:
            self._refs.append(AffineAccess(index, is_write=False))
        return self

    def writes(self, *indices: AffineIndex) -> "NestBuilder":
        for index in indices:
            self._refs.append(AffineAccess(index, is_write=True))
        return self

    def accesses(self, *refs: object) -> "NestBuilder":
        """Attach pre-built references (e.g. ``gather``/``scatter``)."""
        self._refs.extend(refs)
        return self

    def compute(self, cycles_per_iteration: int) -> "NestBuilder":
        self._compute = cycles_per_iteration
        return self

    def sequential(self) -> "NestBuilder":
        self._parallel = False
        return self

    def build(self) -> LoopNest:
        if not self._loops:
            raise ValueError(f"nest {self._name} has no loops")
        return LoopNest(
            name=self._name,
            domain=domain(*self._loops),
            references=tuple(self._refs),
            compute_cycles=self._compute,
            parallel=self._parallel,
        )


def nest_builder(name: str) -> NestBuilder:
    return NestBuilder(name)
