"""Prometheus-style text exposition of a Telemetry hub.

``repro metrics`` renders one run's counters, histograms and phases in
the Prometheus text format (v0.0.4): counters (the manifest's
compile-cache traffic, :func:`repro.obs.manifest.manifest_counters`)
become ``repro_<name>_total``, exact-value histograms become summaries with
p50/p90/p99 quantile samples, and the phase table (a fold over the
run's phase spans) becomes labelled gauges.
The output is deterministic (sorted names, fixed quantile set), so it
can be golden-snapshotted and diffed across runs.

Zero-dependency by design, like the rest of ``repro.obs``: this is a
formatter over the hub's plain dicts, not a client library.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .manifest import manifest_counters
from .telemetry import Telemetry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

QUANTILES = (("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0))


def metric_name(name: str, prefix: str = "repro") -> str:
    """A telemetry name as a legal Prometheus metric name."""
    cleaned = _NAME_OK.sub("_", name.strip())
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n"
    )


def prometheus_text(
    telemetry: Telemetry,
    prefix: str = "repro",
    labels: Optional[dict] = None,
) -> str:
    """The hub's state as Prometheus exposition text.

    ``labels`` (e.g. ``{"workload": "mxm", "mapping": "la"}``) are
    attached to every sample; label order follows sorted keys.
    """
    base_labels = dict(sorted((labels or {}).items()))

    def fmt_labels(extra: Optional[dict] = None) -> str:
        merged = dict(base_labels)
        if extra:
            merged.update(extra)
        if not merged:
            return ""
        inner = ",".join(
            f'{key}="{_escape_label(str(value))}"'
            for key, value in merged.items()
        )
        return "{" + inner + "}"

    lines: List[str] = []

    for name, count in manifest_counters(telemetry.manifest).items():
        metric = metric_name(name, prefix) + "_total"
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{fmt_labels()} {count}")

    for name in sorted(telemetry.histograms):
        hist = telemetry.histograms[name]
        metric = metric_name(name, prefix)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} summary")
        for label, p in QUANTILES:
            lines.append(
                f"{metric}{fmt_labels({'quantile': label})} "
                f"{hist.percentile(p)}"
            )
        lines.append(f"{metric}_sum{fmt_labels()} {hist.sum}")
        lines.append(f"{metric}_count{fmt_labels()} {hist.total}")

    phases = telemetry.phases
    if phases:
        seconds_metric = metric_name("phase_seconds", prefix)
        calls_metric = metric_name("phase_calls", prefix)
        lines.append(
            f"# HELP {seconds_metric} accumulated wall seconds per phase"
        )
        lines.append(f"# TYPE {seconds_metric} gauge")
        for path, record in phases.items():
            lines.append(
                f"{seconds_metric}{fmt_labels({'phase': path})} "
                f"{record.seconds:.6f}"
            )
        lines.append(f"# HELP {calls_metric} phase invocation count")
        lines.append(f"# TYPE {calls_metric} counter")
        for path, record in phases.items():
            lines.append(
                f"{calls_metric}{fmt_labels({'phase': path})} "
                f"{record.calls}"
            )

    return "\n".join(lines) + ("\n" if lines else "")
