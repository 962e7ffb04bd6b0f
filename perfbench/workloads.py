"""The benchmark's three traffic mixes, each a list of sweep cells.

Every workload runs the same seven suite apps at the same scale, so the
mixes differ only in what the simulated machine does with their traffic
(see README.md for why each was chosen and which layers it stresses).
"""

from __future__ import annotations

from typing import List, Tuple

APPS: Tuple[str, ...] = (
    "mxm", "swim", "jacobi-3d", "art", "nbf", "equake", "barnes",
)
"""Regular (compiler path) and irregular (inspector path) apps whose L1
hit rates span 0.0 to 0.64."""

SCALE = 0.4

FAULT_PLAN: Tuple[str, ...] = (
    "link:2,2->3,2:down",
    "link:3,2->2,2:down",
    "router:2,2:hotspot=+8cyc",
    "mc:1:throttle=0.5",
    "bank:14:offline",
)

WORKLOADS: Tuple[str, ...] = ("headline", "ideal-net", "faulted-obs")

LA_WORKLOADS: Tuple[str, ...] = ("headline", "faulted-obs")
"""Workloads that run both mapper arms, so LA-vs-default applies."""

REPEAT_APP = "jacobi-3d"
"""The cheapest app: its cells are executed a second time in every
measured process to check that repeats reproduce the payload."""

DEFAULT_SEED = 11
"""The seed whose per-cell outputs are pinned in ``digests.json``."""


def build_cells(workload: str, seed: int) -> List:
    """The sweep cells of ``workload``, every one carrying ``seed``."""
    from repro.exec import SweepCell
    from repro.sim.config import DEFAULT_CONFIG

    shared = DEFAULT_CONFIG.shared_llc()
    private = DEFAULT_CONFIG.private_llc()
    if workload == "headline":
        grid = [(config, ("default", "la")) for config in (shared, private)]
        extra = {}
    elif workload == "ideal-net":
        grid = [
            (config.ideal_network(), ("default",))
            for config in (shared, private)
        ]
        extra = {}
    elif workload == "faulted-obs":
        grid = [(shared, ("default", "la"))]
        extra = {"collect_obs": True, "faults": FAULT_PLAN, "fault_aware": True}
    else:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    return [
        SweepCell(
            workload=app, config=config, mapping=mapping, scale=SCALE,
            seed=seed, **extra,
        )
        for config, mappings in grid
        for app in APPS
        for mapping in mappings
    ]


def cell_id(cell) -> str:
    """Stable, human-readable name of a cell within its workload."""
    return f"{cell.workload}[{cell.mapping}]@{cell.config.llc_organization.value}"
