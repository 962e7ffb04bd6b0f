"""Loop nests and whole programs.

A :class:`LoopNest` is one parallel loop (the paper's optimization unit:
"this algorithm is invoked once for each parallel loop nest").  A
:class:`Program` is an ordered list of nests over a shared set of arrays,
optionally wrapped in an outer *timing loop* (irregular codes iterate their
nests until convergence; the inspector runs after the first trip).

``Program.instantiate`` resolves symbolic bounds/shapes against concrete
parameters, lays the arrays out in virtual memory and materializes the
index-array contents -- everything needed to enumerate the program's memory
accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .arrays import ArrayDecl, ArraySpace
from .iterspace import ConcreteDomain, IterationDomain, IterationSet
from .refs import IndirectAccess, RuntimeData

Reference = object  # AffineAccess | IndirectAccess
IndexArrayBuilder = Callable[[Mapping[str, int], np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class LoopNest:
    """One parallel loop nest: a domain plus the references in its body."""

    name: str
    domain: IterationDomain
    references: Tuple[Reference, ...]
    compute_cycles: int = 4
    parallel: bool = True

    def __post_init__(self) -> None:
        if not self.references:
            raise ValueError(f"loop nest {self.name} has no array references")
        if self.compute_cycles < 0:
            raise ValueError("compute cost cannot be negative")

    @property
    def is_regular(self) -> bool:
        return all(ref.is_regular for ref in self.references)

    @property
    def reads(self) -> Tuple[Reference, ...]:
        return tuple(r for r in self.references if not r.is_write)

    @property
    def writes(self) -> Tuple[Reference, ...]:
        return tuple(r for r in self.references if r.is_write)

    def arrays(self) -> List[ArrayDecl]:
        seen: Dict[str, ArrayDecl] = {}
        for ref in self.references:
            seen.setdefault(ref.array.name, ref.array)
            if isinstance(ref, IndirectAccess):
                seen.setdefault(ref.index_array.name, ref.index_array)
        return list(seen.values())


@dataclass(frozen=True)
class Program:
    """A multi-threaded application: nests + arrays + (optional) timing loop."""

    name: str
    nests: Tuple[LoopNest, ...]
    default_params: Mapping[str, int] = field(default_factory=dict)
    index_array_builders: Mapping[str, IndexArrayBuilder] = field(
        default_factory=dict
    )
    timing_loop_trips: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.nests:
            raise ValueError(f"program {self.name} has no loop nests")
        if self.timing_loop_trips < 1:
            raise ValueError("timing loop must run at least once")

    @property
    def is_regular(self) -> bool:
        """Paper's classification: regular iff (almost) all refs are affine.

        We use the strict version -- a program is regular when every
        reference in every nest is affine.
        """
        return all(nest.is_regular for nest in self.nests)

    def arrays(self) -> List[ArrayDecl]:
        seen: Dict[str, ArrayDecl] = {}
        for nest in self.nests:
            for arr in nest.arrays():
                seen.setdefault(arr.name, arr)
        return list(seen.values())

    def instantiate(
        self,
        params: Optional[Mapping[str, int]] = None,
        page_bytes: int = 2048,
        scale: float = 1.0,
    ) -> "ProgramInstance":
        """Bind parameters, lay out arrays, build index-array contents.

        ``scale`` multiplies every parameter (used by the KNL input-size
        study, Figure 17).
        """
        bound = dict(self.default_params)
        if params:
            bound.update(params)
        if scale != 1.0:
            bound = {k: max(1, int(round(v * scale))) for k, v in bound.items()}
        space = ArraySpace(page_bytes=page_bytes)
        for arr in self.arrays():
            space.place(arr, bound)
        rng = np.random.default_rng(self.seed)
        runtime: Dict[str, np.ndarray] = {}
        for name, builder in self.index_array_builders.items():
            runtime[name] = np.asarray(builder(bound, rng), dtype=np.int64)
        domains = tuple(nest.domain.resolve(bound) for nest in self.nests)
        return ProgramInstance(
            program=self,
            params=bound,
            space=space,
            runtime=runtime,
            domains=domains,
        )


@dataclass(frozen=True)
class ProgramInstance:
    """A program bound to concrete parameters and a memory layout."""

    program: Program
    params: Mapping[str, int]
    space: ArraySpace
    runtime: RuntimeData
    domains: Tuple[ConcreteDomain, ...]

    @property
    def name(self) -> str:
        return self.program.name

    def nest_domain(self, nest_index: int) -> ConcreteDomain:
        return self.domains[nest_index]

    def total_iterations(self) -> int:
        return sum(dom.size for dom in self.domains)

    def addresses_for(
        self, nest_index: int, bindings: Mapping[str, int]
    ) -> List[Tuple[int, bool]]:
        """(vaddr, is_write) for every reference at one iteration."""
        nest = self.program.nests[nest_index]
        return [
            (ref.address(bindings, self.space, self.runtime), ref.is_write)
            for ref in nest.references
        ]

    def iter_accesses(
        self, nest_index: int, iteration_set: IterationSet
    ) -> Iterator[Tuple[int, bool]]:
        """All accesses of an iteration set, in program order."""
        dom = self.domains[nest_index]
        for bindings in iteration_set.iterations(dom):
            for addr, is_write in self.addresses_for(nest_index, bindings):
                yield addr, is_write
