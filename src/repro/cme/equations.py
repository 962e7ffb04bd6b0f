"""Cache-miss-equation style per-reference hit/miss estimation.

Ghosh et al.'s CME frames cache behaviour as counting solutions of linear
Diophantine systems; the paper replaces exact counting with statistical
methods (Section 4, footnote 8) and reports 76-93% accuracy.  Our estimator
keeps the same interface and statistical character:

1. Sample each iteration set's iterations evenly (``sampling``).
2. Run the sampled line stream through an exact set-associative LRU model
   whose capacity is scaled by the sampling fraction (the standard sampled-
   simulation correction), labelling each access hit or miss.
3. Optionally degrade labels to a target ``accuracy`` (independent flips),
   so experiments can dial in the paper's 76-93% band or the perfect
   estimation of Figure 15.

The output is a per-iteration-set list of (address, is_write, llc_hit)
labels -- exactly what MAI/CAI construction and alpha selection consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.ir.iterspace import IterationSet
from repro.ir.loops import ProgramInstance

from .sampling import sampled_access_stream
from .stack import SetAssociativeModel


@dataclass(frozen=True)
class ClassifiedAccess:
    """One sampled access with its predicted LLC outcome."""

    vaddr: int
    is_write: bool
    llc_hit: bool


@dataclass
class SetEstimate:
    """Predicted behaviour of one iteration set."""

    set_id: int
    accesses: List[ClassifiedAccess] = field(default_factory=list)

    @property
    def hit_fraction(self) -> float:
        if not self.accesses:
            return 0.0
        hits = sum(1 for a in self.accesses if a.llc_hit)
        return hits / len(self.accesses)

    @property
    def miss_fraction(self) -> float:
        # An unsampled set is treated as all-miss (conservative), the same
        # stance alpha selection takes: hit + miss always sums to 1.0.
        return 1.0 - self.hit_fraction


class CacheMissEstimator:
    """Statistical CME over a program instance.

    ``accuracy`` in (0, 1]: probability each label is left intact; 1.0 is
    the oracle mode used for the Figure 15 "perfect estimation" study.
    """

    def __init__(
        self,
        llc_size_bytes: int = 512 * 1024,
        llc_assoc: int = 16,
        line_bytes: int = 64,
        accuracy: float = 1.0,
        sample_iterations: int = 8,
        seed: int = 17,
    ):
        if not 0.0 < accuracy <= 1.0:
            raise ValueError("accuracy must be in (0, 1]")
        if llc_size_bytes < line_bytes * llc_assoc:
            raise ValueError("LLC too small for one set")
        self.llc_size_bytes = llc_size_bytes
        self.llc_assoc = llc_assoc
        self.line_bytes = line_bytes
        self.accuracy = accuracy
        self.sample_iterations = sample_iterations
        self.seed = seed

    # ------------------------------------------------------------------
    def _build_model(self, sample_fraction: float) -> SetAssociativeModel:
        total_lines = self.llc_size_bytes // self.line_bytes
        num_sets = max(1, total_lines // self.llc_assoc)
        scaled_sets = max(1, int(round(num_sets * min(1.0, sample_fraction))))
        return SetAssociativeModel(scaled_sets, self.llc_assoc)

    def estimate_nest(
        self,
        instance: ProgramInstance,
        nest_index: int,
        iteration_sets: Sequence[IterationSet],
    ) -> Dict[int, SetEstimate]:
        """Per-set classified accesses for one loop nest.

        The result is a pure function of (instance, nest_index, sets) and
        the estimator's parameters: the sampled-capacity correction uses
        the *actual* sampled-to-total iteration ratio (not the average set
        size, which mis-scales heterogeneous sets), and label noise draws
        from per-(nest, set) seeded streams, so estimates are independent
        of how many nests were estimated before this one -- which is what
        makes them safely memoizable (:mod:`repro.compile`).
        """
        if not iteration_sets:
            return {}
        # Sampled-simulation capacity correction from the stream actually
        # fed to the model: each set contributes min(size, sample budget)
        # evenly spaced iterations, so the scaling follows the true
        # sampled fraction even when set sizes are wildly heterogeneous.
        total_iterations = sum(s.size for s in iteration_sets)
        sampled_iterations = sum(
            min(s.size, self.sample_iterations) for s in iteration_sets
        )
        sample_fraction = sampled_iterations / total_iterations
        model = self._build_model(sample_fraction)
        estimates: Dict[int, SetEstimate] = {
            s.set_id: SetEstimate(s.set_id) for s in iteration_sets
        }
        flip_rngs: Dict[int, np.random.Generator] = {}
        for sampled in sampled_access_stream(
            instance, nest_index, iteration_sets, self.sample_iterations
        ):
            line = sampled.vaddr // self.line_bytes
            hit = model.access(line)
            if self.accuracy < 1.0:
                rng = flip_rngs.get(sampled.set_id)
                if rng is None:
                    rng = self._flip_rng(nest_index, sampled.set_id)
                    flip_rngs[sampled.set_id] = rng
                hit = self._maybe_flip(hit, rng)
            estimates[sampled.set_id].accesses.append(
                ClassifiedAccess(sampled.vaddr, sampled.is_write, hit)
            )
        return estimates

    def _flip_rng(self, nest_index: int, set_id: int) -> np.random.Generator:
        """Label-noise stream for one (nest, iteration set) pair.

        String-seeded from the estimator seed plus the pair's coordinates,
        so the flips applied to a set never depend on estimation order or
        on any other set's draws (call-order independence).
        """
        material = f"repro.cme.flip:{self.seed}:{nest_index}:{set_id}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    def _maybe_flip(self, label: bool, rng: np.random.Generator) -> bool:
        if self.accuracy >= 1.0:
            return label
        if rng.random() < self.accuracy:
            return label
        return not label

    # ------------------------------------------------------------------
    def nest_hit_fraction(
        self,
        instance: ProgramInstance,
        nest_index: int,
        iteration_sets: Sequence[IterationSet],
    ) -> float:
        """Aggregate predicted LLC hit fraction of a nest (drives alpha)."""
        estimates = self.estimate_nest(instance, nest_index, iteration_sets)
        total = sum(len(e.accesses) for e in estimates.values())
        if total == 0:
            return 0.0
        hits = sum(
            sum(1 for a in e.accesses if a.llc_hit) for e in estimates.values()
        )
        return hits / total


def oracle_estimator(
    llc_size_bytes: int = 512 * 1024,
    llc_assoc: int = 16,
    line_bytes: int = 64,
    sample_iterations: int = 8,
) -> CacheMissEstimator:
    """Perfect-label estimator (Figure 15's 100% accuracy mode)."""
    return CacheMissEstimator(
        llc_size_bytes=llc_size_bytes,
        llc_assoc=llc_assoc,
        line_bytes=line_bytes,
        accuracy=1.0,
        sample_iterations=sample_iterations,
    )
