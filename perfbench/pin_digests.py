"""Regenerate ``digests.json``: per-cell outputs at the pinned seed.

Run from the root of a checkout after a change that is meant to alter
simulated results::

    python3 perfbench/pin_digests.py

Each workload is swept once in a fresh process, exactly as the benchmark
sweeps it.
"""

from __future__ import annotations

import json
import sys
import time

from check import DIGESTS_PATH, pinned_form
from run import SRC, run_child
from workloads import DEFAULT_SEED, WORKLOADS, build_cells, cell_id


def main() -> int:
    sys.path.insert(0, str(SRC))
    pinned = {}
    for workload in WORKLOADS:
        ids = [cell_id(cell) for cell in build_cells(workload, DEFAULT_SEED)]
        sweep = run_child(
            "sweep", workload, DEFAULT_SEED, time.monotonic() + 600.0
        )
        pinned[workload] = {
            cell: pinned_form(payload)
            for cell, payload in zip(ids, sweep["payloads"])
        }
        print(f"{workload}: {len(ids)} cells pinned")
    DIGESTS_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": pinned},
                   indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
