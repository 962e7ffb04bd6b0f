"""Cross-process span tracing with deterministic ids and Perfetto export.

The span runtime extends the telemetry hub across the process boundary:
the PR 5 sweep executor fans cells out over a ``ProcessPoolExecutor``,
and without it the workers' phase timers, retries, backoffs and cache
hits are invisible on one timeline.  Three pieces:

* :class:`TraceContext` -- the picklable capsule a coordinator hands a
  worker: the trace id, the scope (a sweep cell's content-addressed
  key), the parent span id and the submit wall time.  It crosses the
  process boundary inside :class:`repro.exec.SweepCell` and is
  re-hydrated into a fresh :class:`Tracer` in the worker.
* :class:`Span` / :class:`Tracer` -- zero-dependency span recording.
  Span ids are **deterministic**: derived from the trace id (itself
  derived from the run manifest's ``config_hash`` recipe), the scope,
  the span name and a per-``(scope, name)`` occurrence counter -- never
  from the wall clock or the pid.  Two runs of the same manifest + cell
  keys therefore produce byte-identical span ids, which is what lets the
  equivalence suite compare serial, 4-worker and cache-warm timelines.
  Phases are spans too (``cat="phase"``, recorded by
  :meth:`repro.obs.Telemetry.phase`); phase tables are folds over them
  (:func:`repro.obs.phase_table`).
* Chrome/Perfetto export -- :meth:`Tracer.to_trace_json` renders the
  merged multi-process timeline in the Trace Event JSON format
  (``chrome://tracing`` / https://ui.perfetto.dev load it directly).

Wall-clock timestamps are obviously not deterministic; determinism
claims are scoped to :meth:`Tracer.skeleton`, the timestamp-free
projection (id, scope, name, cat, parent) the tests hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

TRACE_SCHEMA = "repro.trace/1"

COORDINATOR_SCOPE = "coord"
"""Scope of spans recorded by the sweep coordinator itself."""


def derive_trace_id(material: Any) -> str:
    """Deterministic 16-hex trace id from JSON-serializable material.

    Callers feed the same recipe the run manifest pins (the config hash
    plus the sorted cell keys), so one logical experiment always gets
    the same trace id -- no wall clock, no randomness.
    """
    payload = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def span_id(trace_id: str, scope: str, name: str, index: int) -> str:
    """Deterministic 16-hex span id.

    ``index`` is the occurrence counter of ``name`` within ``scope``;
    execution inside one scope (one cell, one process) is deterministic,
    so the counter -- and hence the id -- reproduces across runs.
    """
    material = f"{trace_id}|{scope}|{name}|{index}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """Everything a worker needs to continue the coordinator's trace."""

    trace_id: str
    scope: str = COORDINATOR_SCOPE
    parent_span_id: Optional[str] = None
    submitted_unix: Optional[float] = None

    def child(
        self,
        scope: str,
        parent_span_id: Optional[str] = None,
        submitted_unix: Optional[float] = None,
    ) -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id,
            scope=scope,
            parent_span_id=(
                parent_span_id
                if parent_span_id is not None
                else self.parent_span_id
            ),
            submitted_unix=submitted_unix,
        )


@dataclass
class Span:
    """One recorded interval (or instant, when ``duration`` is 0)."""

    span_id: str
    name: str
    cat: str
    scope: str
    start_unix: float
    duration: float = 0.0
    parent_id: Optional[str] = None
    pid: int = 0
    instant: bool = False
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "cat": self.cat,
            "scope": self.scope,
            "start_unix": round(self.start_unix, 6),
            "duration": round(self.duration, 6),
            "parent_id": self.parent_id,
            "pid": self.pid,
            "instant": self.instant,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            span_id=data["span_id"],
            name=data["name"],
            cat=data.get("cat", "phase"),
            scope=data.get("scope", COORDINATOR_SCOPE),
            start_unix=float(data.get("start_unix", 0.0)),
            duration=float(data.get("duration", 0.0)),
            parent_id=data.get("parent_id"),
            pid=int(data.get("pid", 0)),
            instant=bool(data.get("instant", False)),
            args=dict(data.get("args") or {}),
        )


class Tracer:
    """Per-process span recorder; one per coordinator and one per cell.

    ``enabled=False`` builds a no-op tracer (every record path returns
    immediately), mirroring the :class:`~repro.obs.telemetry.Telemetry`
    cost model: an untraced run pays no recording cost.
    """

    def __init__(self, context: TraceContext, enabled: bool = True):
        self.context = context
        self.enabled = enabled
        # repro-lint: allow[DET101] reason=pid labels Perfetto tracks; span ids never use it
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._counters: Dict[tuple, int] = {}

    @classmethod
    def disabled(cls) -> "Tracer":
        return cls(TraceContext(trace_id="off"), enabled=False)

    # -- id derivation ---------------------------------------------------
    def _next_id(self, scope: str, name: str) -> str:
        index = self._counters.get((scope, name), 0)
        self._counters[(scope, name)] = index + 1
        return span_id(self.context.trace_id, scope, name, index)

    def _parent_id(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        return self.context.parent_span_id

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "phase",
        scope: Optional[str] = None,
        **args: Any,
    ) -> Iterator[Optional[Span]]:
        """Record one interval span around the ``with`` body."""
        if not self.enabled:
            yield None
            return
        scope = scope if scope is not None else self.context.scope
        span = Span(
            span_id=self._next_id(scope, name),
            name=name,
            cat=cat,
            scope=scope,
            # repro-lint: allow[DET101] reason=span timestamps are timing data, not id material
            start_unix=time.time(),
            parent_id=self._parent_id(),
            pid=self.pid,
            args=dict(args),
        )
        self._stack.append(span)
        # repro-lint: allow[DET101] reason=duration measurement, not id material
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            # repro-lint: allow[DET101] reason=duration measurement, not id material
            span.duration = time.perf_counter() - t0
            self._stack.pop()
            self.spans.append(span)

    def instant(
        self,
        name: str,
        cat: str = "event",
        scope: Optional[str] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Record one point-in-time marker."""
        if not self.enabled:
            return None
        scope = scope if scope is not None else self.context.scope
        span = Span(
            span_id=self._next_id(scope, name),
            name=name,
            cat=cat,
            scope=scope,
            # repro-lint: allow[DET101] reason=span timestamps are timing data, not id material
            start_unix=time.time(),
            parent_id=self._parent_id(),
            pid=self.pid,
            instant=True,
            args=dict(args),
        )
        self.spans.append(span)
        return span

    def interval(
        self,
        name: str,
        start_unix: float,
        end_unix: float,
        cat: str = "executor",
        scope: Optional[str] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Record a span whose endpoints were measured externally.

        Used for queue-wait: the coordinator stamps the submit time into
        the :class:`TraceContext` and the worker closes the interval at
        its own start.
        """
        if not self.enabled:
            return None
        scope = scope if scope is not None else self.context.scope
        span = Span(
            span_id=self._next_id(scope, name),
            name=name,
            cat=cat,
            scope=scope,
            start_unix=start_unix,
            duration=max(0.0, end_unix - start_unix),
            parent_id=self._parent_id(),
            pid=self.pid,
            args=dict(args),
        )
        self.spans.append(span)
        return span

    def add_spans(self, span_dicts: Sequence[Dict[str, Any]]) -> None:
        """Merge spans serialized by another process's tracer."""
        if not self.enabled:
            return
        for data in span_dicts:
            self.spans.append(Span.from_dict(data))

    # -- event-stream bridge ---------------------------------------------
    def event_tee(self) -> Callable[[dict], None]:
        """A callback for :attr:`EventStream.tee`: mirrors decision events
        (mapper placements, fault injections, engine trips) as instant
        child spans, categorized by their kind prefix."""

        def tee(event: dict) -> None:
            kind = event.get("kind", "event")
            cat = kind.split(".", 1)[0]
            args = {
                k: v for k, v in event.items() if k not in ("kind", "seq")
            }
            self.instant(kind, cat=cat, **args)

        return tee

    # -- serialization ---------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    # -- deterministic projection ----------------------------------------
    def skeleton(
        self, scopes: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Timestamp- and pid-free projection, sorted: the byte-identical
        part of a trace.  ``scopes`` restricts to deterministic scopes
        (cell keys); coordinator-side retry/rebuild spans depend on
        scheduling and are excluded by passing the cell-key scopes."""
        wanted = set(scopes) if scopes is not None else None
        rows = [
            "|".join([
                span.scope,
                span.name,
                span.cat,
                span.span_id,
                span.parent_id or "-",
            ])
            for span in self.spans
            if wanted is None or span.scope in wanted
        ]
        return sorted(rows)

    # -- Chrome/Perfetto Trace Event export ------------------------------
    def trace_events(self) -> List[Dict[str, Any]]:
        """The merged timeline as Trace Event dicts (``ph`` X/i/M).

        Timestamps are microseconds since the earliest recorded span, so
        the exported file starts at t=0 whatever the wall clock said.
        Events are ordered by (pid, ts, name) for stable rendering.
        """
        if not self.spans:
            return []
        t0 = min(span.start_unix for span in self.spans)
        events: List[Dict[str, Any]] = []
        pids = sorted({span.pid for span in self.spans})
        for pid in pids:
            role = "coordinator" if pid == self.pid else "worker"
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{role} pid={pid}"},
            })
        timeline = []
        for span in self.spans:
            event: Dict[str, Any] = {
                "name": span.name,
                "cat": span.cat,
                "pid": span.pid,
                "tid": 0,
                "ts": round((span.start_unix - t0) * 1e6, 3),
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "scope": span.scope,
                    **span.args,
                },
            }
            if span.instant:
                event["ph"] = "i"
                event["s"] = "p"
            else:
                event["ph"] = "X"
                event["dur"] = round(span.duration * 1e6, 3)
            timeline.append(event)
        timeline.sort(key=lambda e: (e["pid"], e["ts"], e["name"]))
        return events + timeline

    def to_trace_json(self, indent: Optional[int] = None) -> str:
        """The full Perfetto-loadable JSON document."""
        document = {
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA,
                "trace_id": self.context.trace_id,
                "spans": len(self.spans),
                "pids": sorted({span.pid for span in self.spans}),
            },
            "traceEvents": self.trace_events(),
        }
        return json.dumps(document, indent=indent, sort_keys=True) + "\n"

    def save(self, path: str, indent: Optional[int] = 1) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_trace_json(indent=indent))

    # -- queries ---------------------------------------------------------
    def of_name(self, *names: str) -> List[Span]:
        wanted = set(names)
        return [span for span in self.spans if span.name in wanted]

    def worker_pids(self) -> List[int]:
        """Distinct pids of spans recorded outside this process."""
        return sorted({
            span.pid for span in self.spans if span.pid != self.pid
        })

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"Tracer(trace_id={self.context.trace_id!r}, "
            f"spans={len(self.spans)}, enabled={self.enabled})"
        )


def validate_trace_events(document: Dict[str, Any]) -> List[str]:
    """Schema check of an exported trace document; returns violations.

    Not a full Trace Event validator -- it pins the invariants Perfetto
    needs to load the file: a ``traceEvents`` list whose entries carry
    ``ph``/``name``/``pid``, duration events a numeric ``ts``/``dur``,
    and instants a scope letter.  CI runs this over the sweep trace
    artifact.
    """
    violations: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            violations.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "B", "E"):
            violations.append(f"event {i}: unknown ph {ph!r}")
            continue
        if "name" not in event or "pid" not in event:
            violations.append(f"event {i}: missing name/pid")
        if ph == "X":
            if not isinstance(event.get("ts"), (int, float)):
                violations.append(f"event {i}: X without numeric ts")
            if not isinstance(event.get("dur"), (int, float)):
                violations.append(f"event {i}: X without numeric dur")
            elif event["dur"] < 0:
                violations.append(f"event {i}: negative dur")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            violations.append(f"event {i}: instant without scope letter")
    return violations
