"""Statistical sampling of iteration sets for compile-time estimation.

The paper modified the original CME "to employ statistical methods when
computing the number of solutions", trading a little accuracy for large
compile-time savings.  We realize the same trade by estimating each
iteration set's behaviour from an evenly spaced sample of its iterations
rather than all of them; the sample rate is the speed/accuracy knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.ir.iterspace import IterationSet
from repro.ir.loops import ProgramInstance


@dataclass(frozen=True)
class SampledAccess:
    """One sampled reference execution."""

    set_id: int
    vaddr: int
    is_write: bool


def sample_iteration_set(
    instance: ProgramInstance,
    nest_index: int,
    iteration_set: IterationSet,
    max_iterations: int,
) -> List[SampledAccess]:
    """Addresses of up to ``max_iterations`` iterations of one set."""
    dom = instance.nest_domain(nest_index)
    out: List[SampledAccess] = []
    for bindings in iteration_set.sample(dom, max_iterations):
        for vaddr, is_write in instance.addresses_for(nest_index, bindings):
            out.append(SampledAccess(iteration_set.set_id, vaddr, is_write))
    return out


def sampled_access_stream(
    instance: ProgramInstance,
    nest_index: int,
    iteration_sets: Sequence[IterationSet],
    max_iterations_per_set: int = 16,
) -> Iterator[SampledAccess]:
    """Sampled accesses of all iteration sets, in schedule order.

    Keeping program order matters: stack distances (and therefore hit/miss
    labels) depend on the interleaving of sets, and the default schedule
    executes them consecutively per core.
    """
    if max_iterations_per_set < 1:
        raise ValueError("need at least one sampled iteration per set")
    for iteration_set in iteration_sets:
        yield from sample_iteration_set(
            instance, nest_index, iteration_set, max_iterations_per_set
        )
