"""Declarative fault plans: the specification side of ``repro.faults``.

A :class:`FaultPlan` names a set of hardware degradations to inject into
one simulated machine:

* ``link:X1,Y1->X2,Y2:down``         -- a directed mesh link is dead;
* ``link:X1,Y1->X2,Y2:throttle=F``   -- the link runs at fraction ``F`` of
                                        its nominal bandwidth (0 < F < 1);
* ``mc:I:offline``                   -- memory controller ``I`` is gone;
                                        its pages re-interleave over the
                                        survivors;
* ``mc:I:throttle=F``                -- MC ``I`` services requests at
                                        fraction ``F`` of nominal speed;
* ``bank:B:offline``                 -- shared-LLC bank ``B`` (a node id)
                                        is gone; its sets re-hash onto the
                                        healthy banks;
* ``router:X,Y:hotspot=+Ncyc``       -- the router at ``(X, Y)`` adds
                                        ``N`` extra pipeline cycles per
                                        traversal.

Plans are **normalized** (specs parse to a canonically ordered tuple, so
two spellings of the same plan compare, hash, and cache-key equal),
**validated** (conflicting faults on one resource are rejected at parse
time; mesh-dependent range/adjacency checks live in
:meth:`FaultPlan.validate_against` and the FLT001 analysis rule), and
**hashed** (:meth:`FaultPlan.plan_hash` is folded into run manifests and
sweep cache keys).

An *empty* plan is the pristine machine: every injection site in the
simulator checks ``plan is None or plan.is_empty`` and takes the exact
unfaulted code path, which is what the differential zero-fault
equivalence suite (``tests/faults``) certifies.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.noc.topology import Coord, Mesh2D


class FaultPlanError(ValueError):
    """A malformed, conflicting, or machine-incompatible fault plan."""


def _format_fraction(value: float) -> str:
    """Canonical spec rendering of a throttle fraction."""
    text = format(value, ".6g")
    return text


@dataclass(frozen=True, order=True)
class LinkFault:
    """One directed mesh link, dead or throttled."""

    src: Coord
    dst: Coord
    down: bool = False
    throttle: float = 1.0

    def spec(self) -> str:
        endpoint = (
            f"link:{self.src[0]},{self.src[1]}->{self.dst[0]},{self.dst[1]}"
        )
        if self.down:
            return f"{endpoint}:down"
        return f"{endpoint}:throttle={_format_fraction(self.throttle)}"


@dataclass(frozen=True, order=True)
class McFault:
    """One memory controller, offline or throttled."""

    mc: int
    offline: bool = False
    throttle: float = 1.0

    def spec(self) -> str:
        if self.offline:
            return f"mc:{self.mc}:offline"
        return f"mc:{self.mc}:throttle={_format_fraction(self.throttle)}"


@dataclass(frozen=True, order=True)
class BankFault:
    """One offlined shared-LLC bank (named by its mesh node id)."""

    bank: int

    def spec(self) -> str:
        return f"bank:{self.bank}:offline"


@dataclass(frozen=True, order=True)
class RouterFault:
    """A router hotspot: extra pipeline cycles per traversal."""

    node: Coord
    extra_cycles: int = 1

    def spec(self) -> str:
        return f"router:{self.node[0]},{self.node[1]}:hotspot=+{self.extra_cycles}cyc"


SPEC_GRAMMAR = """\
  link:X1,Y1->X2,Y2:down        directed link dead
  link:X1,Y1->X2,Y2:throttle=F  link at fraction F (0 < F < 1)
  mc:I:offline                  MC I offline (pages re-interleave)
  mc:I:throttle=F               MC I at fraction F speed
  bank:B:offline                LLC bank B offline (sets re-hash)
  router:X,Y:hotspot=+Ncyc      router adds N cycles/hop"""
"""One line per fault spec form :meth:`FaultPlan.parse` accepts
(``repro faults list`` prints it)."""

_COORD = r"(\d+),(\d+)"
_LINK_RE = re.compile(rf"^link:{_COORD}->{_COORD}:(down|throttle=([0-9.eE+-]+))$")
_MC_RE = re.compile(r"^mc:(\d+):(offline|throttle=([0-9.eE+-]+))$")
_BANK_RE = re.compile(r"^bank:(\d+):offline$")
_ROUTER_RE = re.compile(rf"^router:{_COORD}:hotspot=\+?(\d+)(?:cyc)?$")


def _parse_throttle(raw: str, spec: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise FaultPlanError(f"bad throttle fraction in {spec!r}") from exc
    if not 0.0 < value < 1.0:
        raise FaultPlanError(
            f"throttle fraction must be in (0, 1), got {value} in {spec!r} "
            "(1.0 would be a no-op; use an empty plan instead)"
        )
    return value


def _parse_one(spec: str):
    spec = spec.strip()
    if not spec:
        raise FaultPlanError("empty fault spec")
    m = _LINK_RE.match(spec)
    if m:
        src = (int(m.group(1)), int(m.group(2)))
        dst = (int(m.group(3)), int(m.group(4)))
        if m.group(5) == "down":
            return LinkFault(src=src, dst=dst, down=True)
        return LinkFault(src=src, dst=dst, throttle=_parse_throttle(m.group(6), spec))
    m = _MC_RE.match(spec)
    if m:
        index = int(m.group(1))
        if m.group(2) == "offline":
            return McFault(mc=index, offline=True)
        return McFault(mc=index, throttle=_parse_throttle(m.group(3), spec))
    m = _BANK_RE.match(spec)
    if m:
        return BankFault(bank=int(m.group(1)))
    m = _ROUTER_RE.match(spec)
    if m:
        extra = int(m.group(3))
        if extra < 1:
            raise FaultPlanError(f"hotspot delta must be >= 1 cycle: {spec!r}")
        return RouterFault(node=(int(m.group(1)), int(m.group(2))), extra_cycles=extra)
    forms = " | ".join(line.split()[0] for line in SPEC_GRAMMAR.splitlines())
    raise FaultPlanError(
        f"unrecognized fault spec {spec!r}; expected one of {forms}"
    )


@dataclass(frozen=True)
class FaultPlan:
    """A normalized, validated set of hardware faults.

    Construct via :meth:`parse` (CLI/JSON spec strings) or directly from
    fault dataclasses; either way ``__post_init__`` sorts each category
    into canonical order and rejects conflicting faults on one resource,
    so equal plans are ``==`` regardless of how they were spelled.
    """

    links: Tuple[LinkFault, ...] = ()
    mcs: Tuple[McFault, ...] = ()
    banks: Tuple[BankFault, ...] = ()
    routers: Tuple[RouterFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(sorted(self.links)))
        object.__setattr__(self, "mcs", tuple(sorted(self.mcs)))
        object.__setattr__(self, "banks", tuple(sorted(self.banks)))
        object.__setattr__(self, "routers", tuple(sorted(self.routers)))
        self._reject_duplicates(
            "link", [(f.src, f.dst) for f in self.links]
        )
        self._reject_duplicates("mc", [f.mc for f in self.mcs])
        self._reject_duplicates("bank", [f.bank for f in self.banks])
        self._reject_duplicates("router", [f.node for f in self.routers])

    @staticmethod
    def _reject_duplicates(kind: str, keys: Sequence[object]) -> None:
        seen = set()
        for key in keys:
            if key in seen:
                raise FaultPlanError(
                    f"conflicting {kind} faults for resource {key!r}"
                )
            seen.add(key)

    # -- construction ----------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "FaultPlan":
        """Build a plan from spec strings (any order; normalized here)."""
        links: List[LinkFault] = []
        mcs: List[McFault] = []
        banks: List[BankFault] = []
        routers: List[RouterFault] = []
        for spec in specs:
            fault = _parse_one(spec)
            if isinstance(fault, LinkFault):
                links.append(fault)
            elif isinstance(fault, McFault):
                mcs.append(fault)
            elif isinstance(fault, BankFault):
                banks.append(fault)
            else:
                routers.append(fault)
        return cls(
            links=tuple(links), mcs=tuple(mcs), banks=tuple(banks),
            routers=tuple(routers),
        )

    @classmethod
    def from_json(cls, obj) -> "FaultPlan":
        """Accept either a JSON list of specs or ``{"faults": [...]}``."""
        if isinstance(obj, dict):
            obj = obj.get("faults", [])
        if not isinstance(obj, (list, tuple)):
            raise FaultPlanError(
                "fault plan JSON must be a list of specs or {'faults': [...]}"
            )
        return cls.parse(str(spec) for spec in obj)

    # -- identity --------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not (self.links or self.mcs or self.banks or self.routers)

    def __len__(self) -> int:
        return (
            len(self.links) + len(self.mcs) + len(self.banks)
            + len(self.routers)
        )

    def to_specs(self) -> Tuple[str, ...]:
        """Canonical sorted spec strings; the plan's serialized identity."""
        return tuple(
            f.spec()
            for category in (self.links, self.mcs, self.banks, self.routers)
            for f in category
        )

    def plan_hash(self) -> str:
        """Stable short digest of the canonical spec list."""
        material = "\n".join(self.to_specs())
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        if self.is_empty:
            return "(no faults)"
        return "; ".join(self.to_specs())

    # -- mesh-dependent validation --------------------------------------
    def validate_against(self, mesh: Mesh2D) -> List[str]:
        """Mesh-dependent legality problems (empty list = legal).

        Parse-time checks already rejected malformed specs; this catches
        resources the given machine does not have: out-of-range
        coordinates and indices, and link endpoints that are not mesh
        neighbours.  The FLT001 analysis rule reports these findings.
        """
        problems: List[str] = []

        def in_mesh(coord: Coord) -> bool:
            return 0 <= coord[0] < mesh.width and 0 <= coord[1] < mesh.height

        for lf in self.links:
            if not in_mesh(lf.src) or not in_mesh(lf.dst):
                problems.append(
                    f"{lf.spec()}: endpoint outside the "
                    f"{mesh.width}x{mesh.height} mesh"
                )
                continue
            if mesh.manhattan(lf.src, lf.dst) != 1:
                problems.append(
                    f"{lf.spec()}: endpoints are not mesh neighbours"
                )
        num_mcs = len(mesh.mcs)
        for mf in self.mcs:
            if not 0 <= mf.mc < num_mcs:
                problems.append(
                    f"{mf.spec()}: MC index out of range (machine has "
                    f"{num_mcs} MCs)"
                )
        for bf in self.banks:
            if not 0 <= bf.bank < mesh.num_nodes:
                problems.append(
                    f"{bf.spec()}: bank id out of range (machine has "
                    f"{mesh.num_nodes} LLC banks)"
                )
        for rf in self.routers:
            if not in_mesh(rf.node):
                problems.append(
                    f"{rf.spec()}: router outside the "
                    f"{mesh.width}x{mesh.height} mesh"
                )
        return problems

    # -- derived views ---------------------------------------------------
    def offline_mcs(self) -> frozenset:
        return frozenset(f.mc for f in self.mcs if f.offline)

    def offline_banks(self) -> frozenset:
        return frozenset(f.bank for f in self.banks)

    def mc_throttles(self) -> Dict[int, float]:
        return {f.mc: f.throttle for f in self.mcs if not f.offline}
