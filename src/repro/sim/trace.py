"""Vectorized generation of per-iteration-set access streams.

Evaluating affine index expressions iteration-by-iteration in Python is the
dominant cost of simulation, so the trace generator lowers each loop nest
to numpy arrays once, over its whole linearized domain:
``addresses[i, r]`` is the virtual address of reference ``r`` at the
nest's ``i``-th iteration.  Affine references become closed-form array
arithmetic; indirect references become one gather through the index-array
contents.  Iteration sets are consecutive ``[start, stop)`` ranges, so
each set's trace is a row slice (a view) of its nest's arrays.  A
:class:`ProgramTrace` caches the arrays for the trips of the runs it
serves; each ``run_workload`` builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ir.iterspace import ConcreteDomain, IterationSet
from repro.ir.loops import ProgramInstance
from repro.ir.refs import AffineAccess, IndirectAccess
from repro.ir.symbolic import AffineExpr


def binding_arrays(
    dom: ConcreteDomain, start: int, stop: int
) -> Dict[str, np.ndarray]:
    """Per-loop-index value arrays for linear iterations ``[start, stop)``."""
    linear = np.arange(start, stop, dtype=np.int64)
    out: Dict[str, np.ndarray] = {}
    remainder = linear
    for name, lo, extent in zip(
        reversed(dom.names), reversed(dom.lowers), reversed(dom.extents)
    ):
        out[name] = lo + remainder % extent
        remainder = remainder // extent
    return out


def eval_expr_arrays(
    expr: AffineExpr, bindings: Dict[str, np.ndarray], length: int
) -> np.ndarray:
    """Evaluate an affine expression over binding arrays."""
    total = np.full(length, expr.const, dtype=np.int64)
    for sym, coeff in expr.coeffs:
        if sym not in bindings:
            raise KeyError(f"unbound symbol {sym!r} in vectorized evaluation")
        total = total + coeff * bindings[sym]
    return total


def _linearize(
    indices: Sequence[np.ndarray], shape: Tuple[int, ...], array_name: str
) -> np.ndarray:
    linear = np.zeros_like(indices[0])
    for idx, extent in zip(indices, shape):
        if (idx < 0).any() or (idx >= extent).any():
            raise IndexError(f"vectorized access to {array_name} out of bounds")
        linear = linear * extent + idx
    return linear


def reference_addresses(
    ref: object,
    bindings: Dict[str, np.ndarray],
    instance: ProgramInstance,
    length: int,
) -> np.ndarray:
    """Addresses of one reference over a block of iterations."""
    space = instance.space
    if isinstance(ref, AffineAccess):
        shape = space.shape(ref.array.name)
        idx_arrays = [
            eval_expr_arrays(expr, bindings, length) for expr in ref.index.indices
        ]
        linear = _linearize(idx_arrays, shape, ref.array.name)
        return space.base(ref.array.name) + linear * ref.array.elem_bytes
    if isinstance(ref, IndirectAccess):
        data = instance.runtime.get(ref.index_array.name)
        if data is None:
            raise KeyError(
                f"index array {ref.index_array.name!r} missing from runtime data"
            )
        pos = eval_expr_arrays(ref.position, bindings, length)
        if (pos < 0).any() or (pos >= len(data)).any():
            raise IndexError(
                f"index array {ref.index_array.name} position out of bounds"
            )
        first = data[pos] + ref.offset
        trailing = [
            eval_expr_arrays(expr, bindings, length) for expr in ref.trailing
        ]
        shape = space.shape(ref.array.name)
        linear = _linearize([first] + trailing, shape, ref.array.name)
        return space.base(ref.array.name) + linear * ref.array.elem_bytes
    raise TypeError(f"unknown reference type {type(ref)!r}")


@dataclass(frozen=True)
class SetTrace:
    """The access stream of one iteration set.

    ``addresses[k, r]``: address of reference ``r`` at local iteration ``k``.
    ``writes[r]``: whether reference ``r`` stores.  ``flat_addresses`` and
    ``flat_writes`` are the same stream in issue order, one entry per
    access.  Every array is a view of the nest's arrays.
    """

    set_id: int
    addresses: np.ndarray
    writes: np.ndarray
    flat_addresses: np.ndarray
    flat_writes: np.ndarray

    @property
    def iterations(self) -> int:
        return self.addresses.shape[0]

    @property
    def refs_per_iteration(self) -> int:
        return self.addresses.shape[1]


class ProgramTrace:
    """Per-nest trace arrays of one program instance, sliced per set.

    A nest is evaluated at its first :meth:`set_trace`, whole: one set of
    binding arrays, one address column per reference (bounds-checked
    once, so an out-of-range access anywhere in the nest raises
    ``IndexError`` there) and the flat issue-order vectors.
    """

    def __init__(
        self,
        instance: ProgramInstance,
        iteration_sets: Dict[int, List[IterationSet]],
    ):
        self.instance = instance
        self.iteration_sets = iteration_sets
        self._nests: Dict[int, SetTrace] = {}
        self._cache: Dict[Tuple[int, int], SetTrace] = {}

    def set_trace(self, nest_index: int, iteration_set: IterationSet) -> SetTrace:
        key = (nest_index, iteration_set.set_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        nest = self._nests.get(nest_index)
        if nest is None:
            nest = self._nests[nest_index] = self._build(nest_index)
        start, stop = iteration_set.start, iteration_set.stop
        refs = nest.refs_per_iteration
        trace = SetTrace(
            iteration_set.set_id,
            nest.addresses[start:stop],
            nest.writes,
            nest.flat_addresses[start * refs:stop * refs],
            nest.flat_writes[start * refs:stop * refs],
        )
        self._cache[key] = trace
        return trace

    def _build(self, nest_index: int) -> SetTrace:
        """The whole nest's trace (``set_id`` -1)."""
        nest = self.instance.program.nests[nest_index]
        dom = self.instance.nest_domain(nest_index)
        length = dom.size
        bindings = binding_arrays(dom, 0, length)
        columns = [
            reference_addresses(ref, bindings, self.instance, length)
            for ref in nest.references
        ]
        addresses = np.stack(columns, axis=1)
        writes = np.array([ref.is_write for ref in nest.references], dtype=bool)
        return SetTrace(
            -1, addresses, writes, addresses.reshape(-1), np.tile(writes, length)
        )

    def total_accesses(self) -> int:
        """Accesses in one full pass over every nest (forces generation)."""
        total = 0
        for nest_index, sets in self.iteration_sets.items():
            for iteration_set in sets:
                trace = self.set_trace(nest_index, iteration_set)
                total += trace.iterations * trace.refs_per_iteration
        return total
