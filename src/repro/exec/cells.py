"""Sweep cells: the unit of work of the sharded experiment executor.

A :class:`SweepCell` pins everything that determines one simulated result:
the workload spec, the full :class:`~repro.sim.config.SystemConfig`, the
mapping, scale, trip count, estimator accuracy and the seed.  Cells are

* **independent** -- no cell reads another cell's machine state, so any
  partition of a sweep into shards executes the same computations;
* **picklable** -- a cell carries only names and plain config data, never
  a live workload or machine, so it crosses process boundaries cheaply
  and each worker rebuilds its own instances;
* **content-addressed** -- :meth:`SweepCell.key` digests the cell identity
  together with the cache schema and pipeline code versions
  (:func:`repro.obs.manifest.sweep_cache_key`), which is what the on-disk
  result cache files entries under.

``workload`` is either a suite benchmark name (``"mxm"``) or a
``"module:factory"`` spec resolved by import -- the latter is how test
fixtures (e.g. crash-injection workloads) run through the production
executor without registering themselves in the suite.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.pipeline import PIPELINE_VERSION
from repro.experiments.harness import DEFAULT_CME_ACCURACY, DEFAULT_SEED
from repro.obs.manifest import _normalize, sweep_cache_key
from repro.obs.tracing import TraceContext
from repro.sim.config import SystemConfig
from repro.workloads import build_workload
from repro.workloads.base import Workload

CACHE_SCHEMA_VERSION = 1
"""Schema of cached cell payloads.  Bump on any payload layout change:
the version is folded into every cache key AND stored in every entry, so
old entries become unreadable misses rather than silently misparsed."""

KWPairs = Tuple[Tuple[str, Any], ...]


def _freeze_args(args: Any) -> KWPairs:
    """Normalize factory kwargs to a sorted, hashable tuple of pairs."""
    if not args:
        return ()
    if isinstance(args, dict):
        items: Iterable[Tuple[str, Any]] = args.items()
    else:
        items = ((str(k), v) for k, v in args)
    return tuple(sorted((str(k), v) for k, v in items))


def resolve_workload(spec: str, args: Optional[Dict[str, Any]] = None) -> Workload:
    """Build the workload a cell names.

    A bare name resolves through the suite registry; a ``module:factory``
    spec imports ``module`` and calls ``factory(**args)``.
    """
    if ":" in spec:
        module_name, _, attr = spec.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        return factory(**(args or {}))
    if args:
        raise ValueError(
            f"workload_args only apply to module:factory specs, got {spec!r}"
        )
    return build_workload(spec)


@dataclass(frozen=True)
class SweepCell:
    """One independent (workload, config, policy) experiment."""

    workload: str
    config: SystemConfig
    mapping: str = "default"
    scale: float = 1.0
    trips: Optional[int] = None
    cme_accuracy: float = DEFAULT_CME_ACCURACY
    observe: bool = False
    collect_obs: bool = False
    seed: int = DEFAULT_SEED
    """The seed the cell runs on; the harness seed unless given."""
    workloads: Tuple[str, ...] = ()
    workload_args: KWPairs = ()
    faults: Tuple[str, ...] = ()
    fault_aware: bool = True
    trace: Optional[TraceContext] = None
    """Span-tracing context the coordinator stamps at submit time.  NOT
    part of the cell's identity or cache key: tracing is pure observation,
    and a traced cell must replay an untraced cell's cached payload (and
    vice versa) byte-identically."""

    compile_cache_dir: Optional[str] = None
    """On-disk store for the compile-side artifact cache
    (:mod:`repro.compile`).  Like ``trace``, NOT part of the cell's
    identity or cache key: the compile cache is bit-transparent, so a
    cached compile must replay an uncached cell's payload (and vice versa)
    byte-identically."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload_args", _freeze_args(self.workload_args)
        )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.faults:
            if self.workloads:
                raise ValueError(
                    "fault plans are not supported on multiprog bundles"
                )
            # Canonicalize at construction: two cells spelling the same
            # plan differently must share one identity and cache key.
            from repro.faults import FaultPlan

            object.__setattr__(
                self, "faults", FaultPlan.parse(self.faults).to_specs()
            )
        else:
            object.__setattr__(self, "faults", ())

    @property
    def kind(self) -> str:
        """``"single"`` (one app) or ``"multiprog"`` (a co-scheduled bundle,
        named by ``workloads``; ``workload`` is then just the bundle label)."""
        return "multiprog" if self.workloads else "single"

    # -- identity ---------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """Everything that determines this cell's result, except the seed."""
        identity = {
            "kind": self.kind,
            "workload": self.workload,
            "workloads": list(self.workloads),
            "workload_args": _normalize(dict(self.workload_args)),
            "mapping": self.mapping,
            "scale": self.scale,
            "trips": self.trips,
            "cme_accuracy": self.cme_accuracy,
            "observe": self.observe,
            "collect_obs": self.collect_obs,
        }
        if self.faults:
            # Only faulted cells carry the extra keys: zero-fault cells keep
            # the exact pre-faults identity, so their cache keys are stable
            # across this feature's introduction.
            identity["faults"] = list(self.faults)
            identity["fault_aware"] = self.fault_aware
        return identity

    def key(self) -> str:
        """Content-addressed cache key (config + identity + versions)."""
        return sweep_cache_key(
            self.config,
            schema=CACHE_SCHEMA_VERSION,
            pipeline=PIPELINE_VERSION,
            seed=self.seed,
            **self.identity(),
        )

    def label(self) -> str:
        """Short human-readable cell name for tables and events."""
        name = self.workload if self.kind == "single" else "+".join(self.workloads)
        return f"{name}[{self.mapping}]"


def sweep_matrix(
    apps: Sequence[str],
    config: SystemConfig,
    mappings: Sequence[str] = ("default",),
    scales: Sequence[float] = (1.0,),
    **common: Any,
) -> List[SweepCell]:
    """Partition a sweep into its independent cells.

    The cross product apps x mappings x scales, in that nesting order --
    the canonical serial iteration order, which the equivalence suite uses
    as the reference ordering.  ``common`` forwards to every cell
    (``seed=...``, ``collect_obs=True``, ...).
    """
    return [
        SweepCell(
            workload=app, config=config, mapping=mapping, scale=scale,
            **common,
        )
        for app in apps
        for mapping in mappings
        for scale in scales
    ]
