"""Classic loop transformations with dependence-legality checks.

The paper's baselines "use all available conventional data locality (e.g.,
tiling) and SIMD optimizations; they differ only in how they assign
iterations to cores" (Section 5).  This module provides the conventional
part for our IR so workloads can be expressed in already-optimized form:

* :func:`interchange` -- permute the loops of a perfect nest, legal iff
  every dependence distance vector stays lexicographically non-negative
  under the permutation (Wolf & Lam);
* :func:`strip_mine` -- split one loop into an outer/inner pair (the 1D
  building block of tiling); always legal, requires concrete bounds;
* :func:`tile` -- strip-mine several loops and interchange the point loops
  inward, yielding the standard rectangular tiling;
* :func:`fuse` -- merge two nests with identical domains, legal iff no
  backward loop-carried dependence is created between their bodies.

All functions return new :class:`~repro.ir.loops.LoopNest` values; the
originals are untouched.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from .dependence import analyze_nest
from .iterspace import IterationDomain, domain
from .loops import LoopNest
from .refs import AffineAccess, IndirectAccess
from .symbolic import AffineExpr, as_expr


class IllegalTransform(ValueError):
    """The requested transformation violates a dependence."""


# ----------------------------------------------------------------------
# Interchange
# ----------------------------------------------------------------------
def _normalize(distance: Tuple[int, ...]) -> Tuple[int, ...]:
    """Orient a distance vector lexicographically non-negative.

    A (write, read) pair with a lexicographically negative distance is the
    same dependence viewed from the other end (an anti-dependence); legality
    constraints apply to the oriented vector.
    """
    for d in distance:
        if d > 0:
            return distance
        if d < 0:
            return tuple(-x for x in distance)
    return distance


def _permuted_distance_ok(distance: Tuple[int, ...], perm: Sequence[int]) -> bool:
    """Lexicographic non-negativity of a permuted distance vector."""
    for index in perm:
        d = distance[index]
        if d > 0:
            return True
        if d < 0:
            return False
    return True  # all-zero: loop independent


def interchange(nest: LoopNest, order: Sequence[str]) -> LoopNest:
    """Reorder the loops of ``nest`` to ``order`` (outermost first).

    Raises :class:`IllegalTransform` when a uniform dependence would be
    reversed.  Non-uniform (may-)dependences are conservatively rejected
    too, unless the nest carries none at all.
    """
    names = nest.domain.names
    if sorted(order) != sorted(names):
        raise ValueError(f"order {order} is not a permutation of {names}")
    perm = [names.index(name) for name in order]
    for dep in analyze_nest(nest):
        if not dep.loop_carried:
            continue
        if dep.distance is None:
            raise IllegalTransform(
                f"cannot prove interchange legal across {dep!r}"
            )
        # Pad distance to full depth if the arrays are lower-rank: missing
        # dimensions carry distance 0.
        distance = _normalize(
            tuple(dep.distance) + (0,) * (len(names) - len(dep.distance))
        )
        if not _permuted_distance_ok(distance, perm):
            raise IllegalTransform(f"interchange to {order} reverses {dep!r}")
    new_domain = IterationDomain(
        names=tuple(order),
        lowers=tuple(nest.domain.lowers[i] for i in perm),
        uppers=tuple(nest.domain.uppers[i] for i in perm),
    )
    return LoopNest(
        name=f"{nest.name}.interchanged",
        domain=new_domain,
        references=nest.references,
        compute_cycles=nest.compute_cycles,
        parallel=nest.parallel,
    )


# ----------------------------------------------------------------------
# Strip mining / tiling
# ----------------------------------------------------------------------
def _substitute_in_expr(
    expr: AffineExpr, name: str, replacement: AffineExpr
) -> AffineExpr:
    coeff = expr.coefficient(name)
    if coeff == 0:
        return expr
    without = expr.substitute({name: 0})
    return without + coeff * replacement


def _substitute_in_refs(references, name: str, replacement: AffineExpr):
    out = []
    for ref in references:
        if isinstance(ref, AffineAccess):
            new_indices = tuple(
                _substitute_in_expr(e, name, replacement)
                for e in ref.index.indices
            )
            out.append(
                AffineAccess(
                    index=type(ref.index)(ref.index.array, new_indices),
                    is_write=ref.is_write,
                )
            )
        elif isinstance(ref, IndirectAccess):
            out.append(
                IndirectAccess(
                    array=ref.array,
                    index_array=ref.index_array,
                    position=_substitute_in_expr(ref.position, name, replacement),
                    offset=ref.offset,
                    trailing=tuple(
                        _substitute_in_expr(e, name, replacement)
                        for e in ref.trailing
                    ),
                    is_write=ref.is_write,
                )
            )
        else:  # pragma: no cover - no other reference kinds exist
            raise TypeError(f"unknown reference {type(ref)!r}")
    return tuple(out)


def strip_mine(
    nest: LoopNest,
    loop: str,
    factor: int,
    params: Optional[Mapping[str, int]] = None,
) -> LoopNest:
    """Split ``loop`` into ``loop`` (outer, tiles) and ``loop#`` (inner).

    Bounds must be concrete after substituting ``params`` and the extent
    must be divisible by ``factor`` (rectangular tiling; ragged tiles would
    need non-affine min() bounds our domains don't model).  Strip mining is
    always legal: it only renames iterations.
    """
    if factor < 1:
        raise ValueError("factor must be positive")
    names = nest.domain.names
    if loop not in names:
        raise ValueError(f"no loop named {loop!r} in {names}")
    bindings = dict(params or {})
    position = names.index(loop)
    lower = nest.domain.lowers[position].substitute(bindings)
    upper = nest.domain.uppers[position].substitute(bindings)
    if not (lower.is_constant() and upper.is_constant()):
        raise ValueError(
            f"strip-mining {loop!r} needs concrete bounds; got "
            f"[{lower!r}, {upper!r})"
        )
    extent = upper.const - lower.const
    if extent % factor != 0:
        raise ValueError(
            f"extent {extent} of {loop!r} not divisible by factor {factor}"
        )
    outer_name, inner_name = loop, f"{loop}#"
    if inner_name in names:
        raise ValueError(f"name collision: {inner_name!r} already exists")
    # i  ->  lower + i_outer * factor + i_inner
    from .symbolic import Idx

    replacement = (
        as_expr(lower.const) + Idx(outer_name) * factor + Idx(inner_name)
    )
    new_refs = _substitute_in_refs(nest.references, loop, replacement)
    triples = []
    for name, lo, up in zip(names, nest.domain.lowers, nest.domain.uppers):
        if name == loop:
            triples.append((outer_name, 0, extent // factor))
            triples.append((inner_name, 0, factor))
        else:
            triples.append(
                (name, lo.substitute(bindings), up.substitute(bindings))
            )
    return LoopNest(
        name=f"{nest.name}.strip{factor}",
        domain=domain(*triples),
        references=new_refs,
        compute_cycles=nest.compute_cycles,
        parallel=nest.parallel,
    )


def tile(
    nest: LoopNest,
    tile_sizes: Mapping[str, int],
    params: Optional[Mapping[str, int]] = None,
) -> LoopNest:
    """Rectangular tiling: strip-mine each named loop, point loops inward.

    The result iterates tiles in the original loop order, then the points
    within a tile -- the standard locality tiling.  Interchange legality of
    moving the point loops inward is checked via the dependence distances
    of the *original* nest (tiling is legal iff the band is fully
    permutable; we verify the weaker sufficient condition that all uniform
    distances are non-negative in every tiled dimension).
    """
    if not tile_sizes:
        raise ValueError("no tile sizes given")
    for dep in analyze_nest(nest):
        if not dep.loop_carried or dep.distance is None:
            continue
        padded = _normalize(
            tuple(dep.distance)
            + (0,) * (nest.domain.depth - len(dep.distance))
        )
        for name, size in tile_sizes.items():
            index = nest.domain.names.index(name)
            if padded[index] < 0:
                raise IllegalTransform(
                    f"tiling {name!r} illegal: negative distance in {dep!r}"
                )
    result = nest
    for name, size in tile_sizes.items():
        result = strip_mine(result, name, size, params=params)
    # Reorder: all tile loops (original names) outermost in original order,
    # then all point loops ("name#") in original order.
    tile_loops = [n for n in result.domain.names if not n.endswith("#")]
    point_loops = [n for n in result.domain.names if n.endswith("#")]
    order = tile_loops + point_loops
    if tuple(order) == result.domain.names:
        return result
    names = result.domain.names
    perm = [names.index(n) for n in order]
    new_domain = IterationDomain(
        names=tuple(order),
        lowers=tuple(result.domain.lowers[i] for i in perm),
        uppers=tuple(result.domain.uppers[i] for i in perm),
    )
    return LoopNest(
        name=f"{nest.name}.tiled",
        domain=new_domain,
        references=result.references,
        compute_cycles=result.compute_cycles,
        parallel=result.parallel,
    )


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def fuse(first: LoopNest, second: LoopNest, name: Optional[str] = None) -> LoopNest:
    """Fuse two nests with identical domains into one body.

    Legality (conservative): for every array written by one nest and
    accessed by the other, the cross-nest dependence in the fused body must
    not be carried backward.  We check it by analyzing the fused nest: any
    provable uniform dependence with a lexicographically negative distance
    is rejected.
    """
    if first.domain != second.domain:
        raise IllegalTransform("fusion requires identical iteration domains")
    fused = LoopNest(
        name=name or f"{first.name}+{second.name}",
        domain=first.domain,
        references=first.references + second.references,
        compute_cycles=first.compute_cycles + second.compute_cycles,
        parallel=first.parallel and second.parallel,
    )
    for dep in analyze_nest(fused):
        if dep.distance is None:
            continue  # may-dependence: same conservatism as the annotation
        if any(d != 0 for d in dep.distance):
            lead = next(d for d in dep.distance if d != 0)
            if lead < 0:
                raise IllegalTransform(
                    f"fusion creates backward dependence {dep!r}"
                )
    return fused
