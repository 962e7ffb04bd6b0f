"""Workload abstraction and index-array generators.

Each of the paper's 21 benchmarks is modeled as a :class:`Workload`: a
:class:`~repro.ir.loops.Program` whose nests reproduce the benchmark's
characteristic access-pattern classes (dense streaming, 2D/3D stencils,
strided panels, neighbor-list gathers, sparse matrix bands, scatter
updates), plus metadata (regular/irregular classification, timing-loop
trips).

Index arrays matter: the locality of an irregular code lives in *how
clustered* its indirection targets are.  The generators below produce the
three canonical shapes:

* ``clustered_indices`` -- a drifting-center neighbor list (MD force lists,
  tree walks): consecutive slots hit nearby elements, so consecutive
  iteration sets have concentrated, slowly rotating MC/bank affinity.
* ``banded_columns``   -- sparse-matrix column indices within a band around
  the diagonal (FEM/CG matrices).
* ``bucketed_keys``    -- radix-sort style keys with limited entropy, so
  scatters cluster into buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from repro.ir.loops import Program, ProgramInstance


@dataclass(frozen=True)
class Workload:
    """One benchmark: program + classification + run parameters."""

    name: str
    program: Program
    regular: bool
    trips: int = 1
    description: str = ""

    def instantiate(
        self,
        params: Optional[Mapping[str, int]] = None,
        page_bytes: int = 2048,
        scale: float = 1.0,
    ) -> ProgramInstance:
        return self.program.instantiate(
            params=params, page_bytes=page_bytes, scale=scale
        )

    @property
    def num_loop_nests(self) -> int:
        return len(self.program.nests)

    @property
    def num_arrays(self) -> int:
        return len(self.program.arrays())


WorkloadFactory = Callable[[], Workload]


# ----------------------------------------------------------------------
# Index-array generators
# ----------------------------------------------------------------------
def clustered_indices(
    slots: int,
    targets: int,
    cluster_radius: int,
    rng: np.random.Generator,
    revisit: float = 0.3,
) -> np.ndarray:
    """A neighbor-list-like index array with drifting spatial clusters.

    The cluster center sweeps the target range once over all slots;
    each index is the center plus bounded noise.  ``revisit`` is the
    probability of re-touching a recent index (temporal reuse -> LLC hits
    for the CAI side of the analysis).
    """
    if slots < 1 or targets < 1:
        raise ValueError("slots and targets must be positive")
    centers = np.linspace(0, max(0, targets - 1), slots)
    noise = rng.integers(-cluster_radius, cluster_radius + 1, size=slots)
    idx = np.clip(centers.astype(np.int64) + noise, 0, targets - 1)
    if revisit > 0 and slots > 1:
        mask = rng.random(slots) < revisit
        lags = rng.integers(1, min(16, slots), size=slots)
        src = np.maximum(0, np.arange(slots) - lags)
        idx[mask] = idx[src[mask]]
    return idx


def banded_columns(
    rows: int,
    nnz_per_row: int,
    bandwidth: int,
    cols: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Column indices of a banded sparse matrix, row-major nonzero order.

    Returns ``rows * nnz_per_row`` entries: nonzero ``k`` of row ``r`` is a
    column within ``bandwidth`` of the diagonal.
    """
    if min(rows, nnz_per_row, bandwidth, cols) < 1:
        raise ValueError("all matrix parameters must be positive")
    diag = (np.arange(rows, dtype=np.int64) * cols) // rows
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=(rows, nnz_per_row))
    col = np.clip(diag[:, None] + offsets, 0, cols - 1)
    return col.reshape(-1)


def row_pointers(rows: int, nnz_per_row: int) -> np.ndarray:
    """CSR-style row ids for a fixed-nnz-per-row matrix, nonzero order."""
    return np.repeat(np.arange(rows, dtype=np.int64), nnz_per_row)


def bucketed_keys(
    slots: int, buckets: int, targets: int, rng: np.random.Generator
) -> np.ndarray:
    """Radix-style scatter targets: keys fall into contiguous buckets.

    Consecutive slots mostly target the same bucket (a digit run), which is
    what gives radix passes their partial locality.
    """
    if min(slots, buckets, targets) < 1:
        raise ValueError("slots, buckets, targets must be positive")
    bucket_of_slot = (np.arange(slots, dtype=np.int64) * buckets) // slots
    jitter = rng.integers(0, max(1, buckets // 4) + 1, size=slots)
    bucket = (bucket_of_slot + jitter) % buckets
    width = max(1, targets // buckets)
    within = rng.integers(0, width, size=slots)
    return np.minimum(bucket * width + within, targets - 1)


def permutation_indices(
    slots: int, targets: int, rng: np.random.Generator
) -> np.ndarray:
    """Low-locality indirection (worst case for location-awareness)."""
    if slots < 1 or targets < 1:
        raise ValueError("slots and targets must be positive")
    reps = -(-slots // targets)
    perm = np.concatenate([rng.permutation(targets) for _ in range(reps)])
    return perm[:slots].astype(np.int64)
