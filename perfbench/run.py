"""Suite benchmark: one traffic mix, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload headline --seed 11 --seconds 20 --trace 0

Every measurement runs in a fresh Python process (``child.py``), so the
process-wide compile cache starts cold as in a user's ``repro run``.

``--trace 0`` runs set-up probes, then whole sweeps until ``--seconds``
have passed (at least one), and reports the end-to-end metrics as
medians.  ``--trace 1`` runs one untraced and one traced sweep and
reports the per-layer metrics.  Both check every cell's output; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from check import PAPER_AVERAGES, CellChecks, la_reductions  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, LA_WORKLOADS, REPEAT_APP, WORKLOADS, build_cells, cell_id,
)

SETUP_PROBES = 5
"""Measured set-up probes per timed run (after one unmeasured warm-up,
which also compiles bytecode on a fresh checkout)."""

TIME_LIMIT_S = 170.0
"""Children still running past this point of a run are killed and the
run fails, so the whole run stays inside its time budget."""


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, seed: int, deadline: float
              ) -> Dict[str, Any]:
    """Run ``child.py`` in a fresh interpreter; returns its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(seed),
        "--t0", repr(time.monotonic()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for a {mode} process")
    try:
        done = subprocess.run(
            command, cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process overran the run's time limit")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(
            f"{mode} process exited {done.returncode}: {tail[0]}"
        )
    out = json.loads(lines[-1])
    if "error" in out:
        raise ChildFailed(out["error"])
    return out


def totals(payloads: List[Dict[str, Any]]) -> Dict[str, int]:
    summed: Dict[str, int] = {}
    for payload in payloads:
        for name, value in payload["stats"].items():
            summed[name] = summed.get(name, 0) + value
    return summed


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_sweeps(checks: CellChecks, sweeps: List[Dict[str, Any]],
                 workload: str, seed: int, other_name: str) -> None:
    """Invariants on every sweep; every later sweep and the repeat cells
    against the first sweep; the first sweep against the pins."""
    ids = checks.ids
    first = dict(zip(ids, sweeps[0]["payloads"]))
    for sweep in sweeps:
        checks.invariants(sweep["payloads"])
    for sweep in sweeps[1:]:
        checks.same(zip(ids, sweep["payloads"]), first, other_name)
    repeat_ids = [cell for cell in ids if cell.startswith(REPEAT_APP + "[")]
    for sweep in sweeps:
        if "repeat_payloads" in sweep:
            checks.same(
                zip(repeat_ids, sweep["repeat_payloads"]), first, "first run"
            )
    if seed == DEFAULT_SEED:
        checks.pins(first, workload)


def timed_run(workload: str, seed: int, seconds: int, deadline: float,
              checks: CellChecks) -> Dict[str, Any]:
    run_child("setup", workload, seed, deadline)  # warm-up, not measured
    setups = [
        run_child("setup", workload, seed, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    sweeps: List[Dict[str, Any]] = []
    start = time.monotonic()
    while not sweeps or time.monotonic() - start < seconds:
        sweeps.append(run_child("sweep", workload, seed, deadline))
    check_sweeps(checks, sweeps, workload, seed, "another sweep")
    accesses = totals(sweeps[0]["payloads"])["l1_accesses"]
    return {
        "sweeps": sweeps,
        "metrics": {
            "sweep_s": (statistics.median(s["sweep_s"] for s in sweeps), "s"),
            "setup_s": (
                statistics.median(setups + [s["setup_s"] for s in sweeps]),
                "s",
            ),
            "sim_accesses_per_s": (
                statistics.median(accesses / s["sweep_s"] for s in sweeps),
                "1/s",
            ),
            "peak_rss_mb": (
                statistics.median(s["peak_rss_mb"] for s in sweeps), "MB"
            ),
        },
    }


def layer_metrics(traced: Dict[str, Any], untraced_sweep_s: float
                  ) -> Dict[str, Any]:
    """The per-layer metrics, named as in README.md, as (value, unit)."""
    layers = traced["layers"]
    self_s, calls = layers["self_s"], layers["calls"]
    stats = totals(traced["payloads"])
    packets = stats["network_packets"]
    return {
        "sim.trace.self_s": (self_s["sim.trace"], "s"),
        "sim.trace.calls": (calls["sim.trace"], "count"),
        "cme.self_s": (self_s["cme"], "s"),
        "cme.calls": (calls["cme"], "count"),
        "core.mapper.self_s": (self_s["core.mapper"], "s"),
        "core.mapper.calls": (calls["core.mapper"], "count"),
        "core.affinity.self_s": (self_s["core.affinity"], "s"),
        "compile.self_s": (self_s["compile"], "s"),
        "compile.calls": (calls["compile"], "count"),
        "compile.hit_ratio": (traced["compile_cache"]["hit_rate"], "ratio"),
        "sim.engine.self_s": (self_s["sim.engine"], "s"),
        "sim.engine.iterations": (stats["iterations_executed"], "count"),
        "memory.translation.self_s": (self_s["memory.translation"], "s"),
        "memory.translation.calls": (calls["memory.translation"], "count"),
        "cache.l1_bulk.self_s": (self_s["cache.l1_bulk"], "s"),
        "cache.l1_bulk.calls": (calls["cache.l1_bulk"], "count"),
        "cache.access.self_s": (self_s["cache.access"], "s"),
        "cache.access.calls": (calls["cache.access"], "count"),
        "cache.l1_hit_rate": (
            ratio(stats["l1_hits"], stats["l1_accesses"]), "ratio"
        ),
        "cache.llc_hit_rate": (
            ratio(stats["llc_hits"], stats["llc_accesses"]), "ratio"
        ),
        "sim.machine.access.self_s": (self_s["sim.machine.access"], "s"),
        "sim.machine.access.calls": (calls["sim.machine.access"], "count"),
        "noc.transfer.self_s": (self_s["noc.transfer"], "s"),
        "noc.packets": (packets, "count"),
        "noc.avg_hops": (ratio(stats["network_total_hops"], packets), "hops"),
        "noc.avg_latency_cycles": (
            ratio(stats["network_total_latency"], packets), "cycles"
        ),
        "faults.route.self_s": (self_s["faults.route"], "s"),
        "faults.route.calls": (calls["faults.route"], "count"),
        "memory.mc.self_s": (self_s["memory.mc"], "s"),
        "memory.mc.calls": (calls["memory.mc"], "count"),
        "memory.dram_row_hit_rate": (
            ratio(stats["dram_row_hits"], stats["dram_accesses"]), "ratio"
        ),
        "obs.self_s": (self_s["obs"], "s"),
        "obs.calls": (calls["obs"], "count"),
        "harness.self_s": (self_s["harness"], "s"),
        "exec.overhead_s": (layers["exec_overhead_s"], "s"),
        "trace.overhead_pct": (
            100.0 * (traced["sweep_s"] / untraced_sweep_s - 1.0), "%"
        ),
        "trace.coverage": (layers["coverage"], "ratio"),
    }


def traced_run(workload: str, seed: int, deadline: float,
               checks: CellChecks) -> Dict[str, Any]:
    untraced = run_child("sweep", workload, seed, deadline)
    traced = run_child("traced", workload, seed, deadline)
    check_sweeps(checks, [untraced, traced], workload, seed, "untraced run")
    return {
        "sweeps": [untraced, traced],
        "metrics": layer_metrics(traced, untraced["sweep_s"]),
    }


def print_la_table(workload: str, ids: List[str],
                   payloads: List[Dict[str, Any]]) -> None:
    print(f"LA vs default ({workload}; simulated, exact; ratio-space geomean "
          "over apps)")
    def pct(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.3f} %"

    for llc, red in sorted(la_reductions(ids, payloads).items()):
        line = (f"  {llc:8s} la_time_reduction_pct={pct(red['time'])}  "
                f"la_net_latency_reduction_pct={pct(red['net_latency'])}")
        if llc in PAPER_AVERAGES:
            figure, net, exec_time = PAPER_AVERAGES[llc]
            line += (f"   [paper {figure}: net {net}% / time {exec_time}%; "
                     "unvalidated comparison on a seven-app subset]")
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    sys.path.insert(0, str(SRC))
    ids = [cell_id(cell) for cell in build_cells(args.workload, args.seed)]
    checks = CellChecks(ids)
    metrics: Dict[str, Any] = {}
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed, deadline, checks)
        else:
            run = timed_run(
                args.workload, args.seed, args.seconds, deadline, checks
            )
        metrics = run["metrics"]
    except ChildFailed as exc:
        checks.fail_all(str(exc))
        run = None

    failed = len(checks.failures)
    print(f"workload={args.workload} seed={args.seed} cells={len(ids)} "
          f"sweeps={len(run['sweeps']) if run else 0}")
    for cell, reason in sorted(checks.failures.items()):
        print(f"  FAILED {cell}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'failed_cell_frac':28s} {failed / len(ids):14.6f} ratio")
    if run and args.workload in LA_WORKLOADS:
        print_la_table(args.workload, ids, run["sweeps"][0]["payloads"])
    correct = run is not None and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(ids),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
