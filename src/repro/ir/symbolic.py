"""Limited symbolic analysis: affine expressions over loop indices/parameters.

The paper notes that "loop bounds in our target programs do not necessarily
need to be known at compile time as our approach performs a limited symbolic
analysis".  We model that with affine expressions over two kinds of symbols:

* **loop indices** (``Idx``)   -- bound during iteration enumeration, and
* **parameters** (``Param``)  -- problem sizes like ``N``, bound when the
  program is instantiated for a concrete input.

Expressions stay affine (symbol * int + ...); products of two symbols raise,
which is exactly the restriction a polyhedral front end such as PLUTO
imposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

Number = int
Bindings = Mapping[str, int]


class NonAffineError(TypeError):
    """Raised when an expression leaves the affine fragment."""


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeffs[s] * s) + const`` over symbol names ``s``."""

    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    # -- construction ---------------------------------------------------
    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr((), int(value))

    @staticmethod
    def symbol(name: str) -> "AffineExpr":
        return AffineExpr(((name, 1),), 0)

    def _as_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    @staticmethod
    def _from_dict(coeffs: Dict[str, int], const: int) -> "AffineExpr":
        items = tuple(sorted((s, c) for s, c in coeffs.items() if c != 0))
        return AffineExpr(items, const)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: Union["AffineExpr", int]) -> "AffineExpr":
        other = _coerce(other)
        coeffs = self._as_dict()
        for sym, c in other.coeffs:
            coeffs[sym] = coeffs.get(sym, 0) + c
        return AffineExpr._from_dict(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(tuple((s, -c) for s, c in self.coeffs), -self.const)

    def __sub__(self, other: Union["AffineExpr", int]) -> "AffineExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: Union["AffineExpr", int]) -> "AffineExpr":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["AffineExpr", int]) -> "AffineExpr":
        if isinstance(other, AffineExpr):
            if other.is_constant():
                other = other.const
            elif self.is_constant():
                self, other = other, self.const
            else:
                raise NonAffineError("product of two symbolic expressions")
        factor = int(other)
        return AffineExpr(
            tuple((s, c * factor) for s, c in self.coeffs), self.const * factor
        )

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------
    def is_constant(self) -> bool:
        return not self.coeffs

    def symbols(self) -> Tuple[str, ...]:
        return tuple(s for s, _ in self.coeffs)

    def coefficient(self, name: str) -> int:
        for sym, c in self.coeffs:
            if sym == name:
                return c
        return 0

    def evaluate(self, bindings: Bindings) -> int:
        total = self.const
        for sym, c in self.coeffs:
            if sym not in bindings:
                raise KeyError(f"unbound symbol {sym!r}")
            total += c * bindings[sym]
        return total

    def substitute(self, bindings: Bindings) -> "AffineExpr":
        """Partially evaluate: replace any bound symbols, keep the rest."""
        coeffs: Dict[str, int] = {}
        const = self.const
        for sym, c in self.coeffs:
            if sym in bindings:
                const += c * bindings[sym]
            else:
                coeffs[sym] = coeffs.get(sym, 0) + c
        return AffineExpr._from_dict(coeffs, const)

    def __repr__(self) -> str:
        parts = [f"{c}*{s}" if c != 1 else s for s, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _coerce(value: Union[AffineExpr, int]) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.constant(int(value))


def Idx(name: str) -> AffineExpr:
    """A loop-index symbol (bound per iteration)."""
    return AffineExpr.symbol(name)


def Param(name: str) -> AffineExpr:
    """A problem-size parameter (bound per program instantiation)."""
    return AffineExpr.symbol(name)


ExprLike = Union[AffineExpr, int]


def as_expr(value: ExprLike) -> AffineExpr:
    return _coerce(value)
