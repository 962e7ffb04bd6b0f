"""Direction vectors and a Banerjee-style bounds test over affine bounds.

:mod:`repro.ir.dependence` runs the cheap direction-insensitive tests (GCD,
uniform distances).  This module adds the next tier a polyhedral front end
would run: for a pair of affine subscripts ``f(i)`` / ``g(i')`` it asks, per
*direction vector* ``psi in {<, =, >}^depth``, whether the dependence
equation ``f(i) = g(i')`` can hold subject to the loop bounds and the
ordering constraints ``i_k psi_k i'_k``.  A direction vector with any
non-``=`` component that survives every test is a (may-)loop-carried
dependence; if none survives, the nest is certified parallel.

The bounds test is Banerjee's: the dependence equation has a solution only
if zero lies between the minimum and maximum of ``f(i) - g(i')`` over the
constrained iteration box.  Under a ``<`` or ``>`` constraint the feasible
set in ``(i_k, i'_k)`` is a triangle; the extremes of a linear form over a
triangle sit at its vertices, so the per-loop contribution is evaluated
exactly at three points.  A direction-aware GCD test filters as well: with
``i_k = i'_k`` the two coefficients merge, which catches stride-parity
proofs (write ``A[2i]`` / read ``A[2i+1]``) per direction.

Everything here needs *concrete* loop bounds.  The paper performs "a
limited symbolic analysis"; we follow it by substituting the program's
parameter bindings first (:func:`concrete_bounds`) and reporting the test
as unavailable -- never unsound -- when bounds stay symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.ir.iterspace import IterationDomain
from repro.ir.symbolic import AffineExpr

LT, EQ, GT = "<", "=", ">"
DIRECTIONS: Tuple[str, ...] = (LT, EQ, GT)

DirectionVector = Tuple[str, ...]


@dataclass(frozen=True)
class LoopBound:
    """One loop's concrete inclusive bounds ``[lower, upper]``."""

    name: str
    lower: int
    upper: int

    @property
    def extent(self) -> int:
        return self.upper - self.lower + 1

    def __repr__(self) -> str:
        return f"{self.name}in[{self.lower},{self.upper}]"


def concrete_bounds(
    dom: IterationDomain, params: Mapping[str, int]
) -> Optional[List[LoopBound]]:
    """Resolve a domain's bounds against parameter bindings.

    Returns ``None`` when any bound stays symbolic after substitution (the
    caller then falls back to the direction-insensitive tests) or when the
    domain is empty.
    """
    bounds: List[LoopBound] = []
    for name, lo, up in zip(dom.names, dom.lowers, dom.uppers):
        lo_c = lo.substitute(params)
        up_c = up.substitute(params)
        if not (lo_c.is_constant() and up_c.is_constant()):
            return None
        if up_c.const <= lo_c.const:
            return None  # empty loop: no iterations, nothing to depend on
        bounds.append(LoopBound(name, lo_c.const, up_c.const - 1))
    return bounds


def _triangle_extrema(
    slope_i: int, slope_d: int, lo: int, up: int
) -> Tuple[int, int]:
    """Min/max of ``slope_i*i + slope_d*d`` over the triangle
    ``{(i, d): 1 <= d <= up-lo, lo <= i <= up-d}`` (requires ``up > lo``)."""
    vertices = ((lo, 1), (up - 1, 1), (lo, up - lo))
    values = [slope_i * i + slope_d * d for i, d in vertices]
    return min(values), max(values)


def _term_range(
    a: int, b: int, bound: LoopBound, direction: str
) -> Optional[Tuple[int, int]]:
    """Range of ``a*i - b*i'`` under ``i direction i'`` within the bounds.

    Returns ``None`` when the direction itself is infeasible (a ``<`` or
    ``>`` needs at least two iterations).
    """
    lo, up = bound.lower, bound.upper
    if direction == EQ:
        # i' = i: the term collapses to (a - b) * i.
        c = a - b
        return (min(c * lo, c * up), max(c * lo, c * up))
    if up <= lo:
        return None  # single-trip loop cannot carry a < or > dependence
    if direction == LT:
        # i' = i + d, d >= 1: term = (a - b)*i - b*d over a triangle.
        return _triangle_extrema(a - b, -b, lo, up)
    # direction == GT: i = i' + d, d >= 1: term = (a - b)*i' + a*d.
    return _triangle_extrema(a - b, a, lo, up)


def _direction_gcd_refutes(
    f: AffineExpr,
    g: AffineExpr,
    bounds: Sequence[LoopBound],
    psi: DirectionVector,
) -> bool:
    """Direction-aware GCD test: True when no integer solution exists.

    Loops constrained to ``=`` contribute a single variable with the merged
    coefficient ``a - b``; the others contribute both coefficients.
    """
    coeffs: List[int] = []
    for bound, direction in zip(bounds, psi):
        a = f.coefficient(bound.name)
        b = g.coefficient(bound.name)
        if direction == EQ:
            if a - b != 0:
                coeffs.append(a - b)
        else:
            if a != 0:
                coeffs.append(a)
            if b != 0:
                coeffs.append(b)
    delta = g.const - f.const
    if not coeffs:
        return delta != 0
    g_all = math.gcd(*[abs(c) for c in coeffs])
    return delta % g_all != 0


def direction_feasible(
    fs: Sequence[AffineExpr],
    gs: Sequence[AffineExpr],
    bounds: Sequence[LoopBound],
    psi: DirectionVector,
) -> bool:
    """May ``f(i) == g(i')`` hold under direction vector ``psi``?

    Sound in the "may" direction: a ``False`` is a proof of independence
    for this direction; a ``True`` only means the cheap tests could not
    refute it.
    """
    for f, g in zip(fs, gs):
        total_lo = f.const - g.const
        total_hi = total_lo
        infeasible = False
        for bound, direction in zip(bounds, psi):
            term = _term_range(
                f.coefficient(bound.name),
                g.coefficient(bound.name),
                bound,
                direction,
            )
            if term is None:
                return False
            total_lo += term[0]
            total_hi += term[1]
        if not (total_lo <= 0 <= total_hi):
            infeasible = True
        if infeasible or _direction_gcd_refutes(f, g, bounds, psi):
            return False
    return True


def feasible_carried_directions(
    fs: Sequence[AffineExpr],
    gs: Sequence[AffineExpr],
    bounds: Sequence[LoopBound],
) -> List[DirectionVector]:
    """All non-``=``-only direction vectors the tests cannot refute.

    An empty list is a certificate: no cross-iteration dependence between
    the two references can exist.  Testing the full ``{<,=,>}^n`` cube
    covers both source/sink orders (a leading ``>`` is the reversed pair),
    so callers pass each unordered reference pair exactly once.
    """
    carried: List[DirectionVector] = []
    depth = len(bounds)
    for psi in product(DIRECTIONS, repeat=depth):
        if all(d == EQ for d in psi):
            continue  # loop-independent: harmless for parallelism
        if direction_feasible(fs, gs, bounds, psi):
            carried.append(psi)
    return carried


def render_directions(vectors: Iterable[DirectionVector]) -> List[str]:
    """Compact ``(<,=)``-style rendering for diagnostics."""
    return ["(" + ",".join(v) + ")" for v in vectors]
