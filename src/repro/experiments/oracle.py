"""Oracle placement analysis: how much can ANY mapping save?

Given the *observed* per-iteration-set traffic of a run (which banks served
its hits, which MCs served its misses), the flit-hop cost of running that
set on core ``c`` is a simple weighted sum of Manhattan distances.  The
oracle assigns every set to its argmin core independently -- ignoring load
balance, so it upper-bounds what location-aware mapping can achieve on this
workload/machine.  EXPERIMENTS.md uses this bound to contextualize the gap
between our measured reductions and the paper's.

Cost model per set on core ``c`` (flit-hops):

* each LLC hit:   ``d(c, bank) * (request_flits + data_flits)``
  (request out, data back -- both scale with distance),
* each LLC miss:  ``d(c, mc_node) * data_flits``
  (only the MC->core fill leg depends on the core's position; the
  core->bank and bank->MC request legs are address-determined).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.noc.packet import CONTROL_FLITS, flits_for_payload
from repro.noc.topology import Mesh2D
from repro.sim.engine import ExecutionEngine, ObservedSet


@dataclass
class OracleAnalysis:
    """Traffic costs of three placements over one observation table."""

    baseline_cost: float
    mapped_cost: float
    oracle_cost: float
    sets: int

    @property
    def mapped_reduction(self) -> float:
        """% traffic-cost reduction the actual mapping achieved."""
        if self.baseline_cost == 0:
            return 0.0
        return 100.0 * (self.baseline_cost - self.mapped_cost) / self.baseline_cost

    @property
    def oracle_reduction(self) -> float:
        """% reduction of the per-set-optimal (unbalanced) placement."""
        if self.baseline_cost == 0:
            return 0.0
        return 100.0 * (self.baseline_cost - self.oracle_cost) / self.baseline_cost

    @property
    def capture_ratio(self) -> float:
        """Fraction of the oracle's headroom the mapping captured."""
        headroom = self.baseline_cost - self.oracle_cost
        if headroom <= 0:
            return 1.0
        return (self.baseline_cost - self.mapped_cost) / headroom


def set_traffic_cost(
    core: int,
    observed: ObservedSet,
    mesh: Mesh2D,
    line_bytes: int = 64,
) -> float:
    """Flit-hop cost of one observed iteration set if run on ``core``."""
    data_flits = flits_for_payload(line_bytes)
    cost = 0.0
    for bank, count in enumerate(observed.hit_bank):
        if count:
            distance = mesh.node_distance(core, int(bank))
            cost += float(count) * distance * (CONTROL_FLITS + data_flits)
    for mc, count in enumerate(observed.miss_mc):
        if count:
            distance = mesh.node_distance(core, mesh.mc_node(int(mc)))
            cost += float(count) * distance * data_flits
    return cost


def analyze_schedule(
    engine: ExecutionEngine,
    label: str,
    schedules: Dict[int, Dict[int, int]],
    baseline_schedules: Optional[Dict[int, Dict[int, int]]] = None,
    line_bytes: int = 64,
) -> OracleAnalysis:
    """Compare a schedule's traffic cost against baseline and oracle.

    ``label`` selects the engine observation table to cost against (the
    traffic actually generated).  ``baseline_schedules`` defaults to
    round-robin by set id.
    """
    mesh = engine.machine.mesh
    num_cores = mesh.num_nodes
    table = engine.observations.get(label, {})
    baseline_cost = mapped_cost = oracle_cost = 0.0
    sets = 0
    for (nest, set_id), observed in table.items():
        costs = [
            set_traffic_cost(core, observed, mesh, line_bytes)
            for core in range(num_cores)
        ]
        mapped_core = schedules.get(nest, {}).get(set_id)
        if mapped_core is None:
            continue
        if baseline_schedules is not None:
            base_core = baseline_schedules[nest][set_id]
        else:
            base_core = set_id % num_cores
        baseline_cost += costs[base_core]
        mapped_cost += costs[mapped_core]
        oracle_cost += min(costs)
        sets += 1
    return OracleAnalysis(
        baseline_cost=baseline_cost,
        mapped_cost=mapped_cost,
        oracle_cost=oracle_cost,
        sets=sets,
    )
