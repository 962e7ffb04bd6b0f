#!/usr/bin/env python3
"""Inspector-executor walkthrough on an irregular application.

Reproduces Section 4's runtime flow on the molecular-dynamics benchmark:

1. trip 1 runs the default schedule while the inspector records, per
   iteration set, which LLC banks served its hits and which MCs served its
   misses;
2. the observations become exact MAI/CAI/alpha values and a schedule;
3. the executor trips run it, and we compare against staying on the
   default schedule -- inspector overhead included.

    python examples/inspector_walkthrough.py [workload] [scale]
"""

import sys

import numpy as np

from repro.experiments.harness import run_workload
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import build_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "moldyn"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    workload = build_workload(name)
    if workload.regular:
        print(f"{name} is regular; the compiler handles it statically -- "
              "try examples/mapping_explorer.py instead.")
        return

    print(f"workload: {name} ({workload.description})")
    print(f"timing loop: {workload.trips}+ trips; inspector runs after "
          "trip 1")
    print()

    base = run_workload(workload, DEFAULT_CONFIG, mapping="default",
                        scale=scale)
    opt = run_workload(workload, DEFAULT_CONFIG, mapping="la", scale=scale,
                       observe=True)
    compiled = opt.compiled

    print("what the inspector learned (3 sample iteration sets):")
    items = sorted(compiled.affinities.items())
    for (nest, set_id), affinity in [items[0], items[len(items) // 2],
                                     items[-1]]:
        print(f"  nest {nest}, set {set_id}: "
              f"MAI={np.round(affinity.mai, 2)} alpha={affinity.alpha:.2f}")
    print()
    print(f"inspector overhead: {compiled.overhead_cycles:,} cycles "
          f"({100 * opt.stats.overhead_fraction:.2f}% of execution)")
    print(f"sets moved by load balancing: "
          f"{100 * compiled.avg_moved_fraction:.1f}%")
    print()

    b, o = base.stats, opt.stats
    net = 100 * (b.avg_network_latency - o.avg_network_latency) / max(
        1e-9, b.avg_network_latency
    )
    time = 100 * (b.execution_cycles - o.execution_cycles) / b.execution_cycles
    print(f"network latency: {b.avg_network_latency:.1f} -> "
          f"{o.avg_network_latency:.1f} cycles/packet ({net:+.1f}%)")
    print(f"execution time:  {b.execution_cycles:,} -> "
          f"{o.execution_cycles:,} cycles ({time:+.1f}% reduction, "
          "overheads included)")

    # How well did trip-1 observations predict the executor's behaviour?
    errors = opt.mai_errors()
    if errors:
        print(f"inspector MAI error vs executor: "
              f"{sum(errors) / len(errors):.3f} (eta)")


if __name__ == "__main__":
    main()
