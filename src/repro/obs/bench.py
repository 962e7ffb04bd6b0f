"""Perf-trajectory records: schema-versioned envelopes + regression watch.

The perf harnesses (``benchmarks/test_perf_*.py``) measure throughput
claims -- engine speedup, parallel sweep scaling, compile-cache reuse.
Before this module they overwrote ``BENCH_*.json`` with bare
numbers, so the trajectory of those claims across commits was
unreconstructible.  Now every measured point is wrapped in an envelope::

    {"schema": "repro.bench/1", "created_unix": ..., "git_sha": ...,
     "host": <fingerprint>, "python": ..., "version": ...,
     "metrics": {"speedup": {"value": 4.9, "direction": "higher"}},
     "record": {<the harness's full record, unchanged>}}

and, in addition to the ``BENCH_*.json`` file at the repo root, appended
to ``benchmarks/history/<name>.jsonl`` -- one line per run, append-only,
which is the trajectory ``repro bench history`` lists and ``repro bench
check`` watches for regressions.
"""

from __future__ import annotations

import json
import math
import os
import platform
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List

from .manifest import package_version

BENCH_SCHEMA = "repro.bench/1"

DEFAULT_HISTORY_DIR = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "history"
)

DEFAULT_TOLERANCE = 0.10
"""Noise band: a metric must move more than 10% past the recorded
trajectory's geomean (in its bad direction) to count as a regression."""


def git_sha() -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except Exception:
        return "unknown"


def host_fingerprint() -> str:
    """A short stable identifier of the measuring machine."""
    return (
        f"{socket.gethostname()}/{platform.machine()}/"
        f"{os.cpu_count() or 0}cpu"
    )


def bench_envelope(
    record: Dict[str, Any],
    metrics: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Wrap one harness record in the schema-versioned envelope.

    ``metrics`` maps metric name to ``{"value": float, "direction":
    "higher"|"lower"}`` -- the scalars the regression watch tracks.
    """
    for name, spec in metrics.items():
        if spec.get("direction") not in ("higher", "lower"):
            raise ValueError(
                f"metric {name!r}: direction must be 'higher' or 'lower'"
            )
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": record.get("benchmark", "unknown"),
        "created_unix": round(time.time(), 3),
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "python": platform.python_version(),
        "version": package_version(),
        "metrics": {
            name: {
                "value": float(spec["value"]),
                "direction": spec["direction"],
            }
            for name, spec in sorted(metrics.items())
        },
        "record": record,
    }


def history_name(bench_path: "str | Path") -> str:
    """``BENCH_engine.json`` -> ``engine``: the trajectory series name."""
    stem = Path(bench_path).stem
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem or "unknown"


def append_bench(
    bench_path: "str | Path",
    record: Dict[str, Any],
    metrics: Dict[str, Dict[str, Any]],
    history_dir: "str | Path | None" = None,
) -> Dict[str, Any]:
    """Record one measured point: BENCH file + append-only history line.

    The BENCH file keeps its list shape (of envelopes; existing entries
    are preserved verbatim), and the same envelope is appended as one
    JSONL line to ``<history_dir>/<name>.jsonl``.  Returns the envelope.
    """
    bench_path = Path(bench_path)
    envelope = bench_envelope(record, metrics)

    existing: List[Dict[str, Any]] = []
    if bench_path.exists():
        loaded = json.loads(bench_path.read_text(encoding="utf-8"))
        if isinstance(loaded, list):
            existing = loaded
        elif isinstance(loaded, dict):
            existing = [loaded]
    existing.append(envelope)
    bench_path.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    directory = Path(history_dir) if history_dir else DEFAULT_HISTORY_DIR
    directory.mkdir(parents=True, exist_ok=True)
    series = directory / f"{history_name(bench_path)}.jsonl"
    with series.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(envelope, sort_keys=True) + "\n")
    return envelope


def load_history(
    history_dir: "str | Path | None" = None,
) -> Dict[str, List[Dict[str, Any]]]:
    """series name -> chronological envelopes from the history JSONLs.

    A line that is not a ``repro.bench/1`` envelope is skipped, like a
    corrupt one: one bad line must not sink the trajectory.
    """
    directory = Path(history_dir) if history_dir else DEFAULT_HISTORY_DIR
    series: Dict[str, List[Dict[str, Any]]] = {}
    if not directory.exists():
        return series
    for path in sorted(directory.glob("*.jsonl")):
        entries = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and entry.get("schema") == BENCH_SCHEMA:
                entries.append(entry)
        if entries:
            series[path.stem] = entries
    return series


def _baseline(values: List[float]) -> float:
    """Geomean of the trajectory (arithmetic mean when signs preclude it)."""
    if all(v > 0 for v in values):
        return math.exp(sum(math.log(v) for v in values) / len(values))
    return sum(values) / len(values)


def check_history(
    history_dir: "str | Path | None" = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Flag latest-vs-trajectory regressions beyond the noise band.

    For every (series, metric) with at least two points: the baseline is
    the geomean of all *prior* values, and the latest point regresses if
    it is worse (in the metric's bad direction) than baseline by more
    than ``tolerance``.  Relative change is computed against
    ``max(|baseline|, 1e-9)``, so near-zero baselines (e.g. overhead
    fractions) degrade to absolute comparison rather than dividing by
    zero.
    """
    report: Dict[str, Any] = {
        "schema": "repro.bench-check/1",
        "tolerance": tolerance,
        "series": {},
        "regressions": [],
        "ok": True,
    }
    for name, entries in sorted(load_history(history_dir).items()):
        metrics: Dict[str, List[float]] = {}
        for entry in entries:
            for metric, spec in (entry.get("metrics") or {}).items():
                value = spec.get("value")
                if isinstance(value, (int, float)):
                    metrics.setdefault(metric, []).append(float(value))
        series_report: Dict[str, Any] = {"entries": len(entries)}
        for metric, values in sorted(metrics.items()):
            direction = "higher"
            for entry in reversed(entries):
                spec = (entry.get("metrics") or {}).get(metric)
                if spec:
                    direction = spec.get("direction", "higher")
                    break
            latest = values[-1]
            verdict: Dict[str, Any] = {
                "points": len(values),
                "latest": latest,
                "direction": direction,
            }
            if len(values) >= 2:
                baseline = _baseline(values[:-1])
                denom = max(abs(baseline), 1e-9)
                delta = (latest - baseline) / denom
                worse = -delta if direction == "higher" else delta
                verdict.update({
                    "baseline": round(baseline, 6),
                    "delta_fraction": round(delta, 6),
                    "regressed": worse > tolerance,
                })
                if verdict["regressed"]:
                    report["ok"] = False
                    report["regressions"].append({
                        "series": name,
                        "metric": metric,
                        "baseline": round(baseline, 6),
                        "latest": latest,
                        "delta_fraction": round(delta, 6),
                    })
            else:
                verdict.update({"baseline": None, "regressed": False})
            series_report[metric] = verdict
        report["series"][name] = series_report
    return report
