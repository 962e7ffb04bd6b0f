"""Greedy spec shrinking: minimize a failing case to a small repro.

Classic delta-debugging-lite: starting from the failing case, try an
ordered list of simplifying edits; whenever an edited case still fails
the *same* check, adopt it and restart the pass.  The first edit is the
"minimal jump" -- everything simplified at once -- so bugs that reproduce
everywhere (the common kind for differential engines) shrink in one
evaluation instead of one per knob.  Every candidate is validated before
evaluation (illegal geometry or a fault plan the shrunken mesh cannot
host is skipped, never run), and the whole search is capped at
``max_evals`` check executions, so shrinking a slow oracle stays bounded.

The check is re-run on the *candidate* only; the shrinker never assumes
monotonicity beyond "still fails => keep".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Set

from repro.experiments.harness import DEFAULT_CME_ACCURACY

from .spec import FuzzCase

CheckFn = Callable[[FuzzCase], Optional[str]]

DEFAULT_MAX_EVALS = 60
"""Cap on check executions during one shrink (each may run simulations)."""

_MINIMAL_WORKLOAD = (
    ("compute", 4),
    ("elem_bytes", 32),
    ("n", 256),
    ("nests", 1),
    ("pattern", "stream"),
    ("refs", 1),
)


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink: the smallest still-failing case found."""

    case: FuzzCase
    detail: str
    evals: int
    improved: bool


def _minimal_jump(case: FuzzCase) -> FuzzCase:
    """Everything simplified at once (drops faults; keeps seed/policy)."""
    return case.with_updates(
        mesh_width=4, mesh_height=4, region_w=2, region_h=2,
        llc="shared", mc_placement="corners", network="analytic",
        page_bytes=2048, l2_size_bytes=16384,
        mc_granularity="page", bank_granularity="page", dram="ddr3",
        iteration_set_fraction=0.01, mapping="default", trips=3,
        cme_accuracy=DEFAULT_CME_ACCURACY, workload=_MINIMAL_WORKLOAD, faults=(),
    )


def _workload_edits(case: FuzzCase) -> Iterator[FuzzCase]:
    args = case.workload_args()
    pattern = args.get("pattern", "stream")
    if int(args.get("nests", 1)) > 1:
        yield case.with_updates(workload={**args, "nests": 1})
    if int(args.get("refs", 1)) > 1:
        yield case.with_updates(workload={**args, "refs": 1})
    if pattern != "stream":
        yield case.with_updates(workload=_MINIMAL_WORKLOAD)
    n = int(args.get("n", 256))
    if pattern in ("stream", "gather", "spmv", "bucketed") and n > 256:
        yield case.with_updates(workload={**args, "n": max(256, n // 2)})
    if pattern in ("stencil2d", "mxm") and n > 16:
        yield case.with_updates(workload={**args, "n": max(16, n // 2)})
    if int(args.get("targets", 256)) > 256:
        yield case.with_updates(workload={**args, "targets": 256})
    if int(args.get("elem_bytes", 32)) != 32:
        yield case.with_updates(workload={**args, "elem_bytes": 32})


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Simplifying edits, most aggressive first."""
    yield _minimal_jump(case)
    if case.faults or case.mapping != "default":
        # Same jump but preserving the fault plan and mapping: the right
        # first move for fault/mapping-conditioned failures, where the
        # full jump would make the check vacuously pass.
        yield _minimal_jump(case).with_updates(
            faults=case.faults, mapping=case.mapping
        )
    if case.faults:
        yield case.with_updates(faults=())
    if case.mapping != "default":
        yield case.with_updates(mapping="default")
    if case.trips != 3:
        yield case.with_updates(trips=3)
    yield from _workload_edits(case)
    if (case.mesh_width, case.mesh_height) != (4, 4):
        # Shrink the mesh; 2x2 regions tile every supported size.  Fault
        # specs indexing the larger mesh may become illegal -- validation
        # in shrink() skips those candidates.
        next_w = 4 if case.mesh_width <= 6 else 6
        next_h = 4 if case.mesh_height <= 6 else 6
        yield case.with_updates(
            mesh_width=next_w, mesh_height=next_h, region_w=2, region_h=2
        )
    if (case.region_w, case.region_h) != (2, 2) and (
        case.mesh_width % 2 == 0 and case.mesh_height % 2 == 0
    ):
        yield case.with_updates(region_w=2, region_h=2)
    if case.network != "analytic":
        yield case.with_updates(network="analytic")
    if case.llc != "shared":
        yield case.with_updates(llc="shared")
    if case.mc_placement != "corners":
        yield case.with_updates(mc_placement="corners")
    if case.page_bytes != 2048:
        yield case.with_updates(page_bytes=2048)
    if case.l2_size_bytes != 16384:
        yield case.with_updates(l2_size_bytes=16384)
    if case.mc_granularity != "page":
        yield case.with_updates(mc_granularity="page")
    if case.bank_granularity != "page":
        yield case.with_updates(bank_granularity="page")
    if case.dram != "ddr3":
        yield case.with_updates(dram="ddr3")
    if case.iteration_set_fraction != 0.01:
        yield case.with_updates(iteration_set_fraction=0.01)
    if case.cme_accuracy != DEFAULT_CME_ACCURACY:
        yield case.with_updates(cme_accuracy=DEFAULT_CME_ACCURACY)


def _is_valid(case: FuzzCase) -> bool:
    """Candidate legality: buildable config + mesh-compatible faults."""
    try:
        case.build_config()
        return not case.validation_problems()
    except ValueError:
        return False


def shrink(
    case: FuzzCase,
    check: CheckFn,
    detail: str,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> ShrinkResult:
    """Minimize ``case`` while ``check`` keeps failing.

    ``detail`` is the original failure message (kept when no edit helps).
    Returns the smallest still-failing case found, its (latest) failure
    detail, and how many check evaluations the search spent.
    """
    current = case
    current_detail = detail
    evals = 0
    seen: Set[str] = {case.to_json()}
    progress = True
    while progress and evals < max_evals:
        progress = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            key = candidate.to_json()
            if key in seen:
                continue
            seen.add(key)
            if not _is_valid(candidate):
                continue
            try:
                evals += 1
                candidate_detail = check(candidate)
            except ValueError:
                continue  # the edit produced an unrunnable case: skip it
            if candidate_detail is not None:
                current = candidate
                current_detail = candidate_detail
                progress = True
                break
    return ShrinkResult(
        case=current,
        detail=current_detail,
        evals=evals,
        improved=current is not case,
    )
