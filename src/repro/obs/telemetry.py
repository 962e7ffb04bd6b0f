"""The telemetry hub: counters, histograms, and nested phase spans.

One :class:`Telemetry` instance accompanies one run (or one experiment).
It is deliberately *pull*-based and zero-dependency: instrumentation sites
hold a reference (or ``None``) and record into plain dicts/arrays; nothing
is rendered until a CLI surface (``repro profile`` / ``repro heatmap``) or
a report asks for it.

Cost model
----------
Telemetry is opt-in.  Components treat an absent (``None``) or disabled
hub as "off" and cache that decision once, so the simulator's hot paths
(the bulk L1-hit filter, the per-packet network transfer) carry at most a
predicate that was hoisted out of the loop.  The perf-harness guard
(``benchmarks/test_perf_telemetry_guard.py``) pins the disabled-mode
overhead below 2%.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from .events import EventStream
from .spatial import SpatialAccumulators
from .tracing import Span, TraceContext, Tracer


@dataclass
class PhaseRecord:
    """Accumulated wall time of one (possibly nested) phase path: one row
    of :func:`phase_table`.

    ``depth`` is the nesting level the phase was recorded at (1 =
    top-level), counted along span parents.  Phase *names* may themselves
    contain dots ("sim.cold"), so nesting is never parsed from the path.
    """

    name: str
    seconds: float = 0.0
    calls: int = 0
    depth: int = 1

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1

    def as_dict(self) -> Dict[str, object]:
        return {"seconds": round(self.seconds, 6), "calls": self.calls}


def phase_table(spans: Iterable[Span]) -> Dict[str, PhaseRecord]:
    """Fold ``cat="phase"`` spans into one row per phase path, sorted.

    A phase is recorded once, as a span; every phase view -- the hub's
    :attr:`Telemetry.phases`, the manifest's ``phase_seconds``,
    Prometheus gauges, ``repro profile`` for one run or for a sweep's
    merged worker spans -- is this fold.
    """
    phases = {span.span_id: span for span in spans if span.cat == "phase"}
    table: Dict[str, PhaseRecord] = {}
    for span in phases.values():
        record = table.get(span.name)
        if record is None:
            depth, parent = 1, span.parent_id
            while parent in phases:
                depth, parent = depth + 1, phases[parent].parent_id
            record = table[span.name] = PhaseRecord(span.name, depth=depth)
        record.add(span.duration)
    return dict(sorted(table.items()))


class Histogram:
    """Exact-value histogram over non-negative integers.

    The simulator's distributions (packet latencies, hop counts, stall
    cycles) are small integers with heavy repetition, so an exact
    ``value -> count`` table is both lossless and compact; percentiles are
    computed from the sorted value table on demand.  ``record_many``
    accepts a numpy array and bins it with one ``np.unique`` pass, so bulk
    paths never loop per sample.
    """

    __slots__ = ("name", "_counts")

    def __init__(self, name: str = ""):
        self.name = name
        self._counts: Dict[int, int] = {}

    # -- recording -------------------------------------------------------
    def record(self, value: int, count: int = 1) -> None:
        value = int(value)
        self._counts[value] = self._counts.get(value, 0) + count

    def record_many(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        uniq, counts = np.unique(np.asarray(values), return_counts=True)
        for v, c in zip(uniq.tolist(), counts.tolist()):
            self._counts[int(v)] = self._counts.get(int(v), 0) + int(c)

    # -- queries ---------------------------------------------------------
    @property
    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def sum(self) -> int:
        return sum(v * c for v, c in self._counts.items())

    @property
    def mean(self) -> float:
        total = self.total
        return self.sum / total if total else 0.0

    @property
    def min(self) -> int:
        return min(self._counts) if self._counts else 0

    @property
    def max(self) -> int:
        return max(self._counts) if self._counts else 0

    def percentile(self, p: float) -> int:
        """Value at the ``p``-th percentile (nearest-rank, p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        total = self.total
        if total == 0:
            return 0
        rank = max(1, int(np.ceil(p / 100.0 * total)))
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return self.max  # pragma: no cover - rank <= total by construction

    def items(self) -> List:
        return sorted(self._counts.items())

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "mean": round(self.mean, 3),
            "min": self.min,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.total}, mean={self.mean:.2f})"


class Telemetry:
    """Per-run observability hub.

    ``enabled=False`` builds a hub that every attachment point treats as
    absent -- handy for keeping call sites uniform while paying nothing.
    """

    def __init__(
        self,
        enabled: bool = True,
        events: Optional[EventStream] = None,
    ):
        self.enabled = enabled
        self.events = events if events is not None else EventStream(
            level="decisions" if enabled else "off"
        )
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spatial: Optional[SpatialAccumulators] = None
        self.manifest: Optional[dict] = None
        self.tracer = Tracer(TraceContext(trace_id="local"))
        self._phase_stack: List[str] = []

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Record phases on ``tracer`` (a sweep cell's) instead of the
        hub's local one, and mirror admitted decision events onto it as
        instant child spans (via the event stream's tee).  A disabled hub
        ignores the attachment -- tracing piggybacks on telemetry's cost
        model."""
        if not self.enabled or tracer is None or not tracer.enabled:
            return
        self.tracer = tracer
        self.events.tee = tracer.event_tee()

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    # -- counters --------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    # -- histograms ------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        """The named histogram (created on first use).

        Hot instrumentation sites should call this once outside their loop
        and keep the returned object.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(name)
            self.histograms[name] = hist
        return hist

    # -- spatial ---------------------------------------------------------
    def ensure_spatial(self, num_nodes: int, num_mcs: int) -> SpatialAccumulators:
        """The run's spatial accumulators, sized for one machine."""
        if self.spatial is None:
            self.spatial = SpatialAccumulators(num_nodes, num_mcs)
        elif (
            self.spatial.num_nodes != num_nodes
            or self.spatial.num_mcs != num_mcs
        ):
            raise ValueError(
                "telemetry hub already holds spatial accumulators of a "
                "different machine shape; use one Telemetry per machine"
            )
        return self.spatial

    # -- phases ----------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase as one ``cat="phase"`` span on the hub's tracer;
        nested phases record under dotted paths."""
        if not self.enabled:
            yield
            return
        self._phase_stack.append(name)
        try:
            with self.tracer.span(".".join(self._phase_stack), cat="phase"):
                yield
        finally:
            self._phase_stack.pop()

    @property
    def phases(self) -> Dict[str, PhaseRecord]:
        """The :func:`phase_table` of the hub tracer's spans."""
        return phase_table(self.tracer.spans)

    def phase_seconds(self) -> Dict[str, float]:
        return {path: rec.seconds for path, rec in self.phases.items()}

    def phase_rows(self) -> List[List[object]]:
        """``[phase, calls, seconds, share%]`` rows for table rendering.

        The share is of the total *top-level* time, so nested phases read
        as a breakdown rather than double-counting the total.
        """
        phases = self.phases
        top_total = sum(
            rec.seconds for rec in phases.values() if rec.depth == 1
        )
        rows: List[List[object]] = []
        for path, rec in phases.items():
            share = 100.0 * rec.seconds / top_total if top_total else 0.0
            rows.append([path, rec.calls, round(rec.seconds, 4), round(share, 1)])
        return rows

    # -- snapshot --------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything the hub holds, as JSON-ready plain data."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "phases": {
                path: rec.as_dict() for path, rec in self.phases.items()
            },
            "spatial": self.spatial.as_dict() if self.spatial else None,
            "manifest": self.manifest,
        }

