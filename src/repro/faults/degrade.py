"""Effective (post-fault) topology: routes, distances, service scaling.

``DegradedTopology`` is the one object the injection hooks and the
degradation-aware mapper share.  It projects a :class:`~repro.faults.plan.
FaultPlan` onto a concrete mesh and answers three questions:

* **Routing** -- :meth:`route` returns the links a packet crosses.  The
  static X-Y route is kept verbatim whenever it is healthy (throttles and
  hotspots change timing, not paths, exactly like real dimension-order
  routers).  A route broken by a downed link falls back to a
  deterministic shortest-path detour over the healthy links
  (cost-weighted Dijkstra with node-id tie-breaks).  Detours are simple
  paths -- cycle-free by construction -- and because the timing models
  reserve links in strictly increasing time order, no cyclic wait (and
  hence no deadlock) can arise; a destination with no healthy path at
  all raises :class:`FaultPlanError` (the FLT002 rule rejects such plans
  before a machine is ever built).

* **Effective distance** -- :meth:`distance_units` is the Dijkstra cost
  normalized so it coincides with Manhattan hop count on a pristine
  mesh.  Throttled links and hotspot routers stretch it; the
  degradation-aware MAC/CAC tables are computed from these distances.

* **Service scaling** -- :meth:`link_service_flits` converts a packet's
  flit count into the cycles a throttled link is occupied, shared by the
  wormhole and analytic contention models so both engines degrade
  identically.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.noc.routing import xy_links
from repro.noc.topology import Mesh2D

from .plan import FaultPlan, FaultPlanError

Link = Tuple[int, int]


class DegradedTopology:
    """A mesh viewed through one fault plan."""

    def __init__(self, mesh: Mesh2D, plan: FaultPlan, router_delay: int = 3):
        problems = plan.validate_against(mesh)
        if problems:
            raise FaultPlanError(
                "fault plan incompatible with this machine: "
                + "; ".join(problems)
            )
        self.mesh = mesh
        self.plan = plan
        self.router_delay = router_delay
        self.down: FrozenSet[Link] = frozenset(
            (mesh.node_id(f.src), mesh.node_id(f.dst))
            for f in plan.links
            if f.down
        )
        self.link_throttle: Dict[Link, float] = {
            (mesh.node_id(f.src), mesh.node_id(f.dst)): f.throttle
            for f in plan.links
            if not f.down
        }
        self.router_extra: Dict[int, int] = {
            mesh.node_id(f.node): f.extra_cycles for f in plan.routers
        }
        self.offline_mcs: FrozenSet[int] = plan.offline_mcs()
        self.mc_throttle: Dict[int, float] = plan.mc_throttles()
        self.offline_banks: FrozenSet[int] = plan.offline_banks()
        self._cost_cache: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------
    # Link-level timing hooks
    # ------------------------------------------------------------------
    def link_service_flits(self, link: Link, num_flits: int) -> int:
        """Cycles ``link`` is occupied carrying ``num_flits`` flits."""
        factor = self.link_throttle.get(link)
        if factor is None:
            return num_flits
        return int(math.ceil(num_flits / factor))

    def edge_cost(self, src: int, dst: int) -> float:
        """Traversal cost of one healthy link, in cycles."""
        cost = float(self.router_delay + 1 + self.router_extra.get(src, 0))
        factor = self.link_throttle.get((src, dst))
        if factor is not None:
            cost /= factor
        return cost

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> List[Link]:
        """Links a packet from ``src`` to ``dst`` crosses.

        The X-Y route when healthy; otherwise a deterministic Dijkstra
        detour over the healthy links.  Raises :class:`FaultPlanError`
        when no healthy path exists.  Not memoized here: each network
        calls it once per ``(src, dst)`` and keeps the result in its
        route table.
        """
        links = xy_links(self.mesh, src, dst)
        if self.down and any(link in self.down for link in links):
            links = self._detour(src, dst)
        return links

    def _detour(self, src: int, dst: int) -> List[Link]:
        dist: Dict[int, float] = {src: 0.0}
        parent: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, src)]
        visited: Set[int] = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for neighbor in self.mesh.neighbors(node):
                link = (node, neighbor)
                if link in self.down:
                    continue
                new_cost = cost + self.edge_cost(node, neighbor)
                if new_cost < dist.get(neighbor, math.inf) - 1e-12:
                    dist[neighbor] = new_cost
                    parent[neighbor] = node
                    heapq.heappush(heap, (new_cost, neighbor))
        if dst not in visited:
            raise FaultPlanError(
                f"no healthy route from node {src} to node {dst} under "
                f"plan [{self.plan.describe()}]"
            )
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

    # ------------------------------------------------------------------
    # Effective distances
    # ------------------------------------------------------------------
    def _costs_from(self, src: int) -> List[float]:
        cached = self._cost_cache.get(src)
        if cached is not None:
            return cached
        costs = [math.inf] * self.mesh.num_nodes
        costs[src] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, src)]
        visited: Set[int] = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor in self.mesh.neighbors(node):
                if (node, neighbor) in self.down:
                    continue
                new_cost = cost + self.edge_cost(node, neighbor)
                if new_cost < costs[neighbor] - 1e-12:
                    costs[neighbor] = new_cost
                    heapq.heappush(heap, (new_cost, neighbor))
        self._cost_cache[src] = costs
        return costs

    def distance_units(self, src: int, dst: int) -> float:
        """Effective hop distance (== Manhattan on a pristine mesh).

        ``inf`` when ``dst`` is unreachable over the healthy links.
        """
        if src == dst:
            return 0.0
        return self._costs_from(src)[dst] / float(self.router_delay + 1)

    def mc_distance_units(self, node: int, mc_index: int) -> float:
        """Effective distance to an MC, stretched by its throttle.

        ``inf`` for an offline MC: the mapper must never steer toward it.
        """
        if mc_index in self.offline_mcs:
            return math.inf
        distance = self.distance_units(node, self.mesh.mc_node(mc_index))
        factor = self.mc_throttle.get(mc_index)
        if factor is not None:
            distance /= factor
        return distance

    # ------------------------------------------------------------------
    # Graph-level queries (FLT002 / FLT003)
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Strong connectivity of the healthy directed-link graph."""
        for src in self.mesh.nodes():
            costs = self._costs_from(src)
            if any(math.isinf(c) for c in costs):
                return False
        return True

    def unreachable_pairs(self, limit: int = 5) -> List[Tuple[int, int]]:
        """A few (src, dst) witnesses of disconnection, for diagnostics."""
        pairs: List[Tuple[int, int]] = []
        for src in self.mesh.nodes():
            for dst, cost in enumerate(self._costs_from(src)):
                if math.isinf(cost):
                    pairs.append((src, dst))
                    if len(pairs) >= limit:
                        return pairs
        return pairs

    def online_mcs(self) -> List[int]:
        return [
            mc.index for mc in self.mesh.mcs
            if mc.index not in self.offline_mcs
        ]

    def nearest_online_mc(self, node: int) -> Optional[int]:
        """Closest (effective) online, reachable MC; ``None`` if there is
        none."""
        best: Optional[int] = None
        best_distance = math.inf
        for index in self.online_mcs():
            distance = self.mc_distance_units(node, index)
            if distance < best_distance:
                best, best_distance = index, distance
        return best
