"""Affinity vectors and the paper's similarity (error) measure.

An affinity vector is a normalized weight distribution: ``MAI``/``MAC`` over
memory controllers, ``CAI``/``CAC`` over regions.  The difference between
two vectors (Section 3.4) is

    eta(d, d') = sum_k |d_k - d'_k| / m

-- the L1 distance averaged over the ``m`` entries.  Lower eta means higher
similarity; the mapping algorithms pick the region whose MAC/CAC is closest
to an iteration set's MAI/CAI under this measure.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

AffinityVector = np.ndarray


def affinity_from_counts(counts: Sequence[float], length: int) -> AffinityVector:
    """Normalize raw per-target counts into an affinity vector.

    A zero total yields the all-zero vector (an iteration set with no
    off-chip accesses has no memory affinity at all -- eta against any MAC
    then degenerates to the MAC's own mass, treating all regions equally
    modulo their spread).
    """
    if len(counts) != length:
        raise ValueError(f"expected {length} entries, got {len(counts)}")
    vec = np.asarray(counts, dtype=float)
    if np.any(vec < 0):
        raise ValueError("affinity counts cannot be negative")
    total = vec.sum()
    if total > 0:
        vec = vec / total
    return vec


def affinity_from_targets(
    targets: Iterable[int], length: int, weights: Mapping[int, float] = None
) -> AffinityVector:
    """Build a vector by counting target ids (optionally weighted)."""
    counts = np.zeros(length, dtype=float)
    if weights is None:
        for t in targets:
            counts[t] += 1.0
    else:
        for t in targets:
            counts[t] += weights.get(t, 1.0)
    return affinity_from_counts(counts, length)


def eta(a: AffinityVector, b: AffinityVector) -> float:
    """The paper's error between two affinity vectors (Section 3.4)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum() / a.size)


def combined_eta(
    eta_cache: float, eta_memory: float, alpha: float
) -> float:
    """Weighted overall error for shared LLCs: ``alpha*eta_c + (1-alpha)*eta_m``.

    ``alpha`` is the estimated fraction of accesses served on-chip
    (Section 3.8 / Section 4): all-hits pushes the weight onto cache
    affinity, all-misses onto memory affinity.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be within [0, 1]")
    return alpha * eta_cache + (1.0 - alpha) * eta_memory


def is_normalized(vec: AffinityVector, tol: float = 1e-9) -> bool:
    """True when the vector is a probability distribution (or all-zero)."""
    vec = np.asarray(vec, dtype=float)
    if np.any(vec < -tol):
        return False
    total = vec.sum()
    return abs(total - 1.0) <= tol or abs(total) <= tol


def best_region(
    errors: Mapping[int, float]
) -> int:
    """Region with the minimum error; ties resolved to the lowest id.

    Matches Algorithm 1/2's strict-inequality update (the first region
    reaching the minimum wins when regions are scanned in id order).
    """
    if not errors:
        raise ValueError("no candidate regions")
    best_id, best_err = None, float("inf")
    for region in sorted(errors):
        if errors[region] < best_err:
            best_id, best_err = region, errors[region]
    return best_id
