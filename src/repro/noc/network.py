"""Contention-aware wormhole network model.

``WormholeNetwork`` models X-Y wormhole switching at link granularity.  Each
directed link transfers one flit per cycle.  A packet's head flit leaves node
``i`` for node ``i+1`` only once the link is free; once the head passes, the
link stays occupied for the packet's full flit count (wormhole: the body
follows the head in pipeline fashion and the worm occupies every link it is
crossing).  Router traversal adds a fixed pipeline delay per hop (3 cycles by
default, Table 4).

The model is a well-known approximation of flit-accurate simulation: packets
are processed in injection order and reserve each link for ``num_flits``
cycles starting when their head crosses it.  It captures the two effects the
paper's optimization targets -- hop distance and link contention -- while
staying fast enough to drive 21-application sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .packet import Packet
from .routing import xy_links
from .topology import Mesh2D

if TYPE_CHECKING:
    from repro.faults import DegradedTopology

Link = Tuple[int, int]
Path = Tuple[int, ...]


@dataclass
class NetworkStats:
    """Aggregate statistics of one network instance."""

    packets: int = 0
    flits: int = 0
    flit_hops: int = 0
    total_latency: int = 0
    total_hops: int = 0
    total_queueing: int = 0
    max_latency: int = 0

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.packets if self.packets else 0.0

    @property
    def avg_hops(self) -> float:
        return self.total_hops / self.packets if self.packets else 0.0

    @property
    def avg_queueing(self) -> float:
        return self.total_queueing / self.packets if self.packets else 0.0

    def record(self, latency: int, hops: int, flits: int, queueing: int) -> None:
        self.packets += 1
        self.flits += flits
        self.flit_hops += flits * hops
        self.total_latency += latency
        self.total_hops += hops
        self.total_queueing += queueing
        if latency > self.max_latency:
            self.max_latency = latency


class BaseNetwork:
    """Common interface of the wormhole and analytic network models.

    Links are numbered by their position in ``mesh.links()`` (see
    :attr:`links`), and every per-link quantity the models keep lives in
    a flat list indexed by that number.  The route table maps each
    ``(src, dst)`` pair to the tuple of link indices a packet crosses; it
    is filled on first use, from X-Y routing on a pristine mesh or from
    :meth:`repro.faults.DegradedTopology.route` once :meth:`apply_faults`
    attaches a plan, so each route is computed once per network.
    """

    def __init__(self, mesh: Mesh2D, router_delay: int = 3, zero_latency: bool = False):
        self.mesh = mesh
        self.router_delay = router_delay
        self.zero_latency = zero_latency
        self.stats = NetworkStats()
        self.links: Tuple[Link, ...] = tuple(mesh.links())
        self._link_index: Dict[Link, int] = {
            link: i for i, link in enumerate(self.links)
        }
        self.apply_faults(None)
        # Telemetry attachment (see set_telemetry); all None when disabled
        # so the per-packet fast path pays one predicate, nothing more.
        self.telemetry = None
        self._spatial = None
        self._hist_latency = None
        self._hist_hops = None

    def apply_faults(self, degraded: Optional[DegradedTopology]) -> None:
        """Attach a :class:`repro.faults.DegradedTopology` (or None).

        With faults attached, routes come from the degraded topology
        (X-Y unless detouring around a downed link), hotspot routers add
        pipeline cycles, and throttled links stretch their occupancy.
        The route table starts empty again, so a pair the plan cuts off
        raises :class:`repro.faults.FaultPlanError` on its first packet.
        """
        self.faults = degraded
        self._routes: Dict[Tuple[int, int], Path] = {}
        extra = degraded.router_extra if degraded is not None else {}
        throttle = degraded.link_throttle if degraded is not None else {}
        # Per link id: hotspot cycles of its upstream router, and whether
        # it is throttled (0 and False everywhere on a pristine machine).
        self._hotspot: List[int] = [extra.get(u, 0) for u, _ in self.links]
        self._throttled: List[bool] = [link in throttle for link in self.links]

    def path(self, src: int, dst: int) -> Path:
        """Indices into :attr:`links` of the links ``src`` -> ``dst`` crosses."""
        path = self._routes.get((src, dst))
        if path is None:
            faults = self.faults
            if faults is None:
                links = xy_links(self.mesh, src, dst)
            else:
                # Detours around downed links may be longer than Manhattan.
                links = faults.route(src, dst)
            index = self._link_index
            path = self._routes[(src, dst)] = tuple(index[link] for link in links)
        return path

    def set_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.obs.Telemetry` hub (or None to detach).

        Caches the spatial accumulators and the latency/hops histograms so
        :meth:`transfer` never does a dict lookup per packet.
        """
        if telemetry is None or not telemetry.enabled:
            self.telemetry = None
            self._spatial = None
            self._hist_latency = None
            self._hist_hops = None
            return
        self.telemetry = telemetry
        self._spatial = telemetry.spatial
        self._hist_latency = telemetry.histogram("noc.packet_latency")
        self._hist_hops = telemetry.histogram("noc.packet_hops")

    def transfer(self, packet: Packet) -> int:
        """Deliver ``packet``; returns the cycle its tail arrives at ``dst``.

        Subclasses implement :meth:`_transfer`; this wrapper handles the
        ideal (zero-latency) network used for the Figure 2 upper bound,
        looks the route up, and records statistics.
        """
        src = packet.src
        dst = packet.dst
        if self.zero_latency or src == dst:
            # Local delivery (or the ideal network of Figure 2): the message
            # does not enter the mesh.
            self.stats.record(0, 0, packet.num_flits, 0)
            if self._hist_latency is not None:
                self._hist_latency.record(0)
                self._hist_hops.record(0)
            return packet.inject_time
        path = self._routes.get((src, dst))
        if path is None:
            path = self.path(src, dst)
        spatial = self._spatial
        if spatial is not None:
            # Observed runs add the packet's flits to every link it crosses.
            link_flits = spatial.link_flits
            for i in path:
                link = self.links[i]
                link_flits[link] = link_flits.get(link, 0) + packet.num_flits
        arrival, queueing = self._transfer(packet, path)
        latency = arrival - packet.inject_time
        hops = len(path)
        self.stats.record(latency, hops, packet.num_flits, queueing)
        if self._hist_latency is not None:
            self._hist_latency.record(latency)
            self._hist_hops.record(hops)
        return arrival

    def _transfer(self, packet: Packet, path: Path) -> Tuple[int, int]:
        """Time ``packet`` over ``path``; returns (arrival, queueing)."""
        raise NotImplementedError

    def uncontended_latency(self, src: int, dst: int, num_flits: int) -> int:
        """Latency of a packet on an otherwise empty network.

        Every hop of the route costs the router pipeline, any hotspot
        cycles of its upstream router, and one link cycle; the tail
        follows the head by ``num_flits - 1`` cycles.
        """
        if src == dst or self.zero_latency:
            return 0
        path = self.path(src, dst)
        hotspot = self._hotspot
        return (
            len(path) * (self.router_delay + 1)
            + sum(hotspot[i] for i in path)
            + (num_flits - 1)
        )

    def reset_stats(self) -> None:
        self.stats = NetworkStats()


class WormholeNetwork(BaseNetwork):
    """Link-reservation wormhole model with per-link contention."""

    def __init__(self, mesh: Mesh2D, router_delay: int = 3, zero_latency: bool = False):
        super().__init__(mesh, router_delay, zero_latency)
        # Per link id: the cycle the link's last reservation ends.
        self._link_free: List[int] = [0] * len(self.links)

    def _transfer(self, packet: Packet, path: Path) -> Tuple[int, int]:
        flits = packet.num_flits
        delay = self.router_delay
        link_free = self._link_free
        faults = self.faults
        head = packet.inject_time
        hotspot = self._hotspot
        throttled = self._throttled
        queueing = 0
        for i in path:
            # Router pipeline (plus any hotspot cycles) at the upstream
            # node, then wait for the link.
            ready = head + delay + hotspot[i]
            free_at = link_free[i]
            if free_at > ready:
                queueing += free_at - ready
                ready = free_at
            # Head flit crosses in one cycle; the link then carries the
            # rest of the worm, one flit per cycle -- or below that on a
            # throttled link, which stays reserved proportionally longer.
            head = ready + 1
            service = flits
            if throttled[i]:
                assert faults is not None  # only a plan throttles links
                service = faults.link_service_flits(self.links[i], flits)
            link_free[i] = ready + service
        # Tail arrives (num_flits - 1) cycles after the head.
        return head + flits - 1, queueing

    def link_busy_until(self, link: Link) -> int:
        return self._link_free[self._link_index[link]]

    def reset(self) -> None:
        self._link_free = [0] * len(self.links)
        self.reset_stats()
