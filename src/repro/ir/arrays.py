"""Array declarations and the virtual address space they live in.

Arrays are dense, row-major, with a fixed element size.  ``ArraySpace``
hands out page-aligned base virtual addresses, mimicking a data allocator;
the compiler layers derive MC/LLC placement from these virtual addresses
(legitimate because of the location-bit-preserving OS allocation modeled in
:mod:`repro.memory.translation`).

Calling an :class:`ArrayDecl` with index expressions builds an access --
``A(i, j + 1)`` -- which is how the workload DSL writes references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .symbolic import AffineExpr, Bindings, ExprLike, as_expr


@dataclass(frozen=True)
class ArrayDecl:
    """A dense array: ``name[shape[0]][shape[1]]...`` of ``elem_bytes`` items.

    ``shape`` entries are affine expressions so sizes may be symbolic
    (``Param("N")``); they are resolved against parameter bindings when the
    program is laid out.
    """

    name: str
    shape: Tuple[AffineExpr, ...]
    elem_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("arrays must have at least one dimension")
        if self.elem_bytes < 1:
            raise ValueError("element size must be positive")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def resolved_shape(self, params: Bindings) -> Tuple[int, ...]:
        dims = tuple(dim.evaluate(params) for dim in self.shape)
        if any(d < 1 for d in dims):
            raise ValueError(f"array {self.name} has non-positive extent {dims}")
        return dims

    def size_bytes(self, params: Bindings) -> int:
        total = self.elem_bytes
        for extent in self.resolved_shape(params):
            total *= extent
        return total

    def __call__(self, *indices: ExprLike) -> "AffineIndex":
        """Build an index expression, e.g. ``A(i, j + 1)``."""
        if len(indices) != self.rank:
            raise ValueError(
                f"array {self.name} has rank {self.rank}, got {len(indices)} indices"
            )
        return AffineIndex(self, tuple(as_expr(ix) for ix in indices))


@dataclass(frozen=True)
class AffineIndex:
    """An array name applied to affine index expressions (pre-access)."""

    array: ArrayDecl
    indices: Tuple[AffineExpr, ...]


def declare(name: str, *shape: ExprLike, elem_bytes: int = 8) -> ArrayDecl:
    """Shorthand: ``A = declare("A", N, N)``."""
    return ArrayDecl(name, tuple(as_expr(s) for s in shape), elem_bytes)


class ArraySpace:
    """Assigns page-aligned base virtual addresses to a set of arrays."""

    def __init__(self, page_bytes: int = 2048, base_vaddr: int = 0x10000):
        if page_bytes < 1:
            raise ValueError("page size must be positive")
        self.page_bytes = page_bytes
        self.base_vaddr = base_vaddr
        self._bases: Dict[str, int] = {}
        self._shapes: Dict[str, Tuple[int, ...]] = {}
        self._next = base_vaddr

    def place(self, array: ArrayDecl, params: Bindings) -> int:
        """Allocate (or look up) the base address of ``array``."""
        if array.name in self._bases:
            return self._bases[array.name]
        base = self._align(self._next)
        self._bases[array.name] = base
        self._shapes[array.name] = array.resolved_shape(params)
        self._next = base + array.size_bytes(params)
        return base

    def rebase(self, array_name: str, new_base: int) -> None:
        """Move an array (used by the data-layout-optimization baseline)."""
        if array_name not in self._bases:
            raise KeyError(f"array {array_name} not placed")
        self._bases[array_name] = self._align(new_base)

    def base(self, array_name: str) -> int:
        return self._bases[array_name]

    def shape(self, array_name: str) -> Tuple[int, ...]:
        return self._shapes[array_name]

    def element_address(
        self, array: ArrayDecl, indices: Sequence[int]
    ) -> int:
        """Virtual address of ``array[indices]`` (row-major)."""
        shape = self._shapes[array.name]
        if len(indices) != len(shape):
            raise ValueError("index rank mismatch")
        linear = 0
        for idx, extent in zip(indices, shape):
            if not 0 <= idx < extent:
                raise IndexError(
                    f"{array.name}{list(indices)} out of bounds for shape {shape}"
                )
            linear = linear * extent + idx
        return self._bases[array.name] + linear * array.elem_bytes

    def total_bytes(self) -> int:
        return self._next - self.base_vaddr

    def _align(self, addr: int) -> int:
        rem = addr % self.page_bytes
        return addr if rem == 0 else addr + (self.page_bytes - rem)
