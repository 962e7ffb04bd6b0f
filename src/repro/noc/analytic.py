"""Fast analytic network model with window-based contention.

For the 21-application parameter sweeps a per-flit link reservation model is
still too slow, so we also provide an analytic model.  Hop latency is the
same deterministic ``hops * (router_delay + 1) + (flits - 1)`` pipeline term,
and contention is approximated per link with an M/D/1-style queueing delay
computed from the link's recent utilization:

    wait = rho * service / (2 * (1 - rho))

where ``rho`` is the fraction of the current window's cycles in which the
link carried flits and ``service`` is the packet's flit count.  Utilization
is tracked in fixed windows so phase changes (e.g. the barrier-separated
loop nests of our workloads) are reflected quickly.

The wormhole model in :mod:`repro.noc.network` is the reference; unit tests
check the analytic model tracks it on random traffic.
"""

from __future__ import annotations

from typing import List, Tuple

from .network import BaseNetwork, Path
from .packet import Packet

_MAX_RHO = 0.95

_NEVER = -(1 << 62)
"""Window index of a link that has carried nothing yet: the first packet
closes this empty window, so the link starts with zero utilization."""


class AnalyticNetwork(BaseNetwork):
    """Deterministic-latency network with utilization-derived queueing."""

    def __init__(
        self,
        mesh,
        router_delay: int = 3,
        zero_latency: bool = False,
        window: int = 4096,
    ):
        super().__init__(mesh, router_delay, zero_latency)
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._clear_windows()

    def _clear_windows(self) -> None:
        # Per link id: index of the current window, flits accumulated in
        # it, and the utilization of the window before it.
        num_links = len(self.links)
        self._window_index: List[int] = [_NEVER] * num_links
        self._window_flits: List[int] = [0] * num_links
        self._prev_rho: List[float] = [0.0] * num_links

    def _transfer(self, packet: Packet, path: Path) -> Tuple[int, int]:
        # Each link records the packet's flits in the window of its inject
        # time and samples rho = max(previous window's utilization, the
        # current window's so far), capped at _MAX_RHO.  A finished window
        # closes when a later one is touched; windows with no traffic in
        # between mean the previous utilization has decayed to zero.  (The
        # current window's share needs no cap at 1.0 of its own: anything
        # above the final cap is clamped to it either way.)
        flits = packet.num_flits
        window = self.window
        widx = packet.inject_time // window
        window_index = self._window_index
        window_flits = self._window_flits
        prev_rho = self._prev_rho
        faults = self.faults
        # Hotspot routers lengthen the pipeline term per hop; throttled
        # links inflate both the utilization sample and the service time
        # in the M/D/1 numerator, mirroring the wormhole model's longer
        # link reservation.  Both lists are all zero/False without faults.
        hotspot = self._hotspot
        throttled = self._throttled
        hop = self.router_delay + 1
        base = flits - 1
        queueing = 0.0
        for i in path:
            base += hop + hotspot[i]
            service = flits
            if throttled[i]:
                assert faults is not None  # only a plan throttles links
                service = faults.link_service_flits(self.links[i], flits)
            if widx > window_index[i]:
                prev = (
                    window_flits[i] / window
                    if widx == window_index[i] + 1 else 0.0
                )
                window_index[i] = widx
                prev_rho[i] = prev
                current = service
            else:
                prev = prev_rho[i]
                current = window_flits[i] + service
            window_flits[i] = current
            rho = current / window
            if prev > rho:
                rho = prev
            if rho > _MAX_RHO:
                rho = _MAX_RHO
            queueing += rho * service / (2.0 * (1.0 - rho))
        wait = int(round(queueing))
        return packet.inject_time + base + wait, wait

    def reset(self) -> None:
        self._clear_windows()
        self.reset_stats()
