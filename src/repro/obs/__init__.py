"""``repro.obs`` -- the observability layer.

Zero-dependency telemetry for the simulator and the mapping pipeline:

* :class:`Telemetry` -- exact-value histograms, nested phases
  (``with tele.phase(...)``), each recorded once as a span and folded
  into tables by :func:`phase_table`.
* :class:`SpatialAccumulators` -- per-tile / per-LLC-bank / per-MC /
  per-link traffic counts, recorded identically by both engine modes.
* :class:`EventStream` -- structured JSONL decision events (mapper
  placements, load-balance moves, engine trips) behind a level knob.
* :func:`build_manifest` / :func:`config_hash` -- run manifests.
* :mod:`repro.obs.render` -- ASCII/CSV heatmaps and phase tables
  (surfaced by ``repro profile`` and ``repro heatmap``).

See ``docs/observability.md`` for the full API and event schema.
"""

from .bench import (
    BENCH_SCHEMA,
    append_bench,
    bench_envelope,
    check_history,
    load_history,
)
from .events import LEVELS, EventStream
from .manifest import (
    build_manifest,
    config_digest,
    config_hash,
    package_version,
    sweep_cache_key,
)
from .metrics import prometheus_text
from .spatial import SpatialAccumulators
from .telemetry import Histogram, PhaseRecord, Telemetry, phase_table
from .tracing import (
    TRACE_SCHEMA,
    Span,
    TraceContext,
    Tracer,
    derive_trace_id,
    span_id,
    validate_trace_events,
)

__all__ = [
    "BENCH_SCHEMA",
    "EventStream",
    "Histogram",
    "LEVELS",
    "PhaseRecord",
    "Span",
    "SpatialAccumulators",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "append_bench",
    "bench_envelope",
    "build_manifest",
    "check_history",
    "config_digest",
    "config_hash",
    "derive_trace_id",
    "load_history",
    "package_version",
    "phase_table",
    "prometheus_text",
    "span_id",
    "sweep_cache_key",
    "validate_trace_events",
]
