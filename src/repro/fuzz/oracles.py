"""Differential oracles: two executions that may not disagree.

Each oracle runs one generated case twice through paths the repo claims
are behaviour-identical and compares the complete observable outcome:

* ``engine-differential`` -- the batched fast engine vs the scalar
  reference engine, through the full experiment harness, comparing
  field-identical :class:`~repro.sim.stats.RunStats`, spatial traffic
  accumulators, latency/hop histograms, and the decisions-level event
  stream.
* ``sweep-differential`` -- the same two cells through the sharded sweep
  executor, serial (``workers=1``) vs parallel (``workers=2``), comparing
  the JSON payload maps; the fast/reference cell payloads must also match
  *each other*, which re-checks engine equivalence through the executor's
  serialization path.

An oracle returns ``None`` when the case passes and a short human-readable
detail string naming the first disagreement when it fails.  Oracles are
pure functions of the case: no global state, so the shrinker can replay
them freely.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.exec.cells import SweepCell
from repro.exec.executor import run_sweep
from repro.experiments.harness import run_workload
from repro.obs import EventStream, Telemetry
from repro.sim.config import SystemConfig

from .spec import WORKLOAD_SPEC, FuzzCase


def _run_observed(case: FuzzCase, config: SystemConfig) -> Dict[str, Any]:
    """One fully-instrumented harness run -> JSON-comparable outcome."""
    telemetry = Telemetry(events=EventStream(level="decisions"))
    result = run_workload(
        case.build_workload(),
        config,
        mapping=case.mapping,
        trips=case.trips,
        cme_accuracy=case.cme_accuracy,
        seed=case.seed,
        telemetry=telemetry,
        fault_plan=case.fault_plan(),
        fault_aware=True,
    )
    histograms = {
        name: dict(sorted(hist._counts.items()))
        for name, hist in sorted(telemetry.histograms.items())
    }
    return {
        "stats": dataclasses.asdict(result.stats),
        "moved_fraction": result.moved_fraction,
        "spatial": (
            telemetry.spatial.as_dict() if telemetry.spatial is not None
            else None
        ),
        "histograms": histograms,
        "events": list(telemetry.events.events),
    }


def _first_difference(
    fast: Dict[str, Any], reference: Dict[str, Any]
) -> Optional[str]:
    """Name the first differing section (and stats field) of two outcomes."""
    for section in ("stats", "moved_fraction", "spatial", "histograms",
                    "events"):
        a, b = fast[section], reference[section]
        if a == b:
            continue
        if section == "stats":
            diffs = [
                f"{name}: fast={a[name]} reference={b[name]}"
                for name in sorted(a)
                if a[name] != b[name]
            ]
            return f"stats diverge ({'; '.join(diffs)})"
        return f"{section} diverge"
    return None


def check_engine_differential(case: FuzzCase) -> Optional[str]:
    """Fast vs reference engine through the experiment harness."""
    config = case.build_config()
    fast = _run_observed(case, config.fast_engine())
    reference = _run_observed(case, config.reference_engine())
    return _first_difference(fast, reference)


def _cells(case: FuzzCase) -> List[SweepCell]:
    config = case.build_config()
    return [
        SweepCell(
            workload=WORKLOAD_SPEC,
            config=engine_config,
            mapping=case.mapping,
            trips=case.trips,
            cme_accuracy=case.cme_accuracy,
            collect_obs=True,
            seed=case.seed,
            workload_args=tuple(case.workload),
            faults=case.faults,
            fault_aware=True,
        )
        for engine_config in (config.fast_engine(), config.reference_engine())
    ]


def check_sweep_differential(case: FuzzCase) -> Optional[str]:
    """Serial vs parallel sweep execution, and fast vs reference payloads."""
    cells = _cells(case)
    serial = run_sweep(cells, workers=1).payloads()
    parallel = run_sweep(cells, workers=2).payloads()
    if serial != parallel:
        keys = [key for key in sorted(serial) if serial[key] != parallel.get(key)]
        return (
            "serial and parallel sweep payloads diverge on cell(s) "
            + ", ".join(keys)
        )
    fast_payload, reference_payload = (serial[cell.key()] for cell in cells)
    if fast_payload != reference_payload:
        fast_stats = fast_payload["stats"]
        reference_stats = reference_payload["stats"]
        diffs = [
            name for name in sorted(fast_stats)
            if fast_stats[name] != reference_stats[name]
        ]
        extra = f" (stats fields: {', '.join(diffs)})" if diffs else ""
        return "fast and reference cell payloads diverge" + extra
    return None
