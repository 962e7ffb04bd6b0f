"""Analytic network: utilization-window bookkeeping."""

from repro.noc.analytic import AnalyticNetwork
from repro.noc.packet import CONTROL_FLITS, flits_for_payload
from repro.noc.topology import Mesh2D

MESH = Mesh2D(6, 6)
DATA_FLITS = flits_for_payload(64)


class TestWindowing:
    def test_utilization_decays_after_idle_windows(self):
        net = AnalyticNetwork(MESH, router_delay=3, window=64)
        # Saturate one link, then go idle for many windows.
        for k in range(100):
            net.transfer(0, 1, k, DATA_FLITS)
        busy = net.transfer(0, 1, 100, DATA_FLITS) - 100
        idle = net.transfer(0, 1, 100_000, DATA_FLITS) - 100_000
        assert idle < busy

    def test_fresh_link_has_no_queueing(self):
        net = AnalyticNetwork(MESH, router_delay=3)
        arrival = net.transfer(7, 8, 500, CONTROL_FLITS)
        assert arrival - 500 == net.uncontended_latency(7, 8, 1)

    def test_contention_is_per_link(self):
        net = AnalyticNetwork(MESH, router_delay=3, window=64)
        for k in range(100):
            net.transfer(0, 1, k, DATA_FLITS)
        # A disjoint link is unaffected by the hot one.
        far = net.transfer(30, 31, 100, CONTROL_FLITS) - 100
        assert far == net.uncontended_latency(30, 31, 1)

    def test_queueing_bounded_by_rho_cap(self):
        """Even a saturated link yields finite (capped-rho) delays."""
        net = AnalyticNetwork(MESH, router_delay=3, window=32)
        worst = 0
        for k in range(500):
            latency = net.transfer(0, 1, k, DATA_FLITS) - k
            worst = max(worst, latency)
        base = net.uncontended_latency(0, 1, 5)
        # rho cap 0.95 -> wait <= 0.95*5/(2*0.05) = 47.5 per link.
        assert base < worst <= base + 48
