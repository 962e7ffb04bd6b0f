"""Run manifests: what exactly produced a set of numbers.

A manifest pins a run to its inputs (config hash, seed, workload, mapping,
scale), its software (package version, python, platform) and its cost
(wall/phase seconds), so every ``RunStats`` or benchmark JSON record can
answer "what produced this?" months later.

``config_hash`` is a stable digest of the *semantic* configuration: the
dataclass is flattened to sorted JSON with enums and nested dataclasses
normalized, so two equal configs hash equal across processes and python
versions, and any field change (even a default) changes the hash.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import platform
import socket
import time
from typing import Any, Dict, Optional


def _normalize(value: Any) -> Any:
    """JSON-ready, deterministic form of config field values."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _normalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_digest(config: Any) -> Dict[str, Any]:
    """The normalized config dict that :func:`config_hash` digests."""
    return _normalize(config)


def config_hash(config: Any) -> str:
    """Short stable hash of a (dataclass) configuration."""
    payload = json.dumps(config_digest(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def sweep_cache_key(config: Any, **identity: Any) -> str:
    """Content-addressed key of one sweep cell's result.

    Extends :func:`config_hash` with the rest of a cell's identity --
    workload spec, mapping, scale, trips, estimator accuracy, the derived
    seed, plus the executor's cache schema and pipeline code versions --
    normalized exactly like config fields, so any semantic change to any
    ingredient produces a different key (and therefore a cache miss).
    The on-disk result cache (:mod:`repro.exec.cache`) files entries under
    this digest.
    """
    material = {"config": config_digest(config)}
    for name, value in identity.items():
        material[name] = _normalize(value)
    payload = json.dumps(material, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return "unknown"


def build_manifest(
    config: Any,
    seed: Optional[int] = None,
    workload: Optional[str] = None,
    mapping: Optional[str] = None,
    scale: Optional[float] = None,
    wall_seconds: Optional[float] = None,
    phase_seconds: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one run's manifest as a JSON-ready dict."""
    manifest: Dict[str, Any] = {
        "config_hash": config_hash(config),
        "seed": seed,
        "workload": workload,
        "mapping": mapping,
        "scale": scale,
        "version": package_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": socket.gethostname(),
        # repro-lint: allow[DET101] reason=manifest metadata; config_hash excludes it
        "created_unix": round(time.time(), 3),
    }
    if wall_seconds is not None:
        manifest["wall_seconds"] = round(wall_seconds, 6)
    if phase_seconds:
        manifest["phase_seconds"] = {
            name: round(seconds, 6)
            for name, seconds in sorted(phase_seconds.items())
        }
    if extra:
        manifest.update(extra)
    return manifest


def manifest_counters(manifest: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """A run's counters, named ``compile_cache.<kind>.<outcome>``.

    The manifest's ``compile_cache`` section is the one record of the
    run's compile-cache traffic; ``repro profile`` and ``repro metrics``
    render their counters from it.
    """
    section = (manifest or {}).get("compile_cache") or {}
    return {
        f"compile_cache.{name}": count
        for name, count in sorted((section.get("counters") or {}).items())
    }
