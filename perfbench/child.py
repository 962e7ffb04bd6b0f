"""One fresh process of the benchmark: a set-up probe or one timed sweep.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
on its last stdout line.  Modes:

* ``setup``  -- seconds from process start (``--t0``, a CLOCK_MONOTONIC
  reading the parent took just before spawning) to the first cell
  starting; the sweep is abandoned there.
* ``sweep``  -- the workload's cells through ``run_sweep(cells,
  workers=1)``, untraced; then the repeat cells a second time.
* ``traced`` -- the same sweep with :class:`layers.LayerTracer` installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


class _FirstCellReached(BaseException):
    """Stops a set-up probe when the first cell would start executing.

    A BaseException, so the executor's per-cell retry handler (which
    catches Exception) lets it through.
    """


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    from repro.exec import executor
    from workloads import REPEAT_APP, build_cells

    cells = build_cells(args.workload, args.seed)
    first_cell = []
    run_cell = executor.execute_cell_enveloped

    def timed_cell(cell):
        if not first_cell:
            first_cell.append(time.monotonic())
            if args.mode == "setup":
                raise _FirstCellReached
        return run_cell(cell)

    executor.execute_cell_enveloped = timed_cell
    out = {}
    if args.mode == "setup":
        try:
            executor.run_sweep(cells, workers=1)
        except _FirstCellReached:
            pass
        out["setup_s"] = first_cell[0] - args.t0
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer().install()
    start = time.perf_counter()
    try:
        result = executor.run_sweep(cells, workers=1)
    except executor.SweepError as exc:
        print(json.dumps({"error": str(exc)}))
        return 0
    sweep_s = time.perf_counter() - start
    out["setup_s"] = first_cell[0] - args.t0
    out["sweep_s"] = sweep_s
    out["payloads"] = [r.payload for r in result.results]
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        tracer.uninstall()
        from layers import layer_report

        out["layers"] = layer_report(
            tracer, sweep_s, [r.seconds for r in result.results]
        )
        out["compile_cache"] = result.compile_cache_totals()
    else:
        repeat = [c for c in cells if c.workload == REPEAT_APP]
        out["repeat_payloads"] = [
            r.payload for r in executor.run_sweep(repeat, workers=1).results
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
