"""Wormhole + analytic network models: latency, contention, stats."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import DegradedTopology, FaultPlan
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import WormholeNetwork
from repro.noc.packet import CONTROL_FLITS, flits_for_payload
from repro.noc.topology import Mesh2D

MESH = Mesh2D(6, 6)
DATA_FLITS = flits_for_payload(64)  # a 64-byte line: 5 flits
DETOUR_PLAN = ("link:2,2->3,2:down", "router:2,2:hotspot=+8cyc")


class TestPacket:
    def test_flits_for_payload(self):
        assert flits_for_payload(0) == CONTROL_FLITS
        assert flits_for_payload(1) == CONTROL_FLITS + 1
        assert flits_for_payload(16) == CONTROL_FLITS + 1
        assert flits_for_payload(64) == CONTROL_FLITS + 4

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            flits_for_payload(-1)


class TestWormholeUncontended:
    def test_single_hop_latency(self):
        net = WormholeNetwork(MESH, router_delay=3)
        arrival = net.transfer(0, 1, 0, CONTROL_FLITS)
        # 1 hop: 3 (router) + 1 (link) + 0 extra flits.
        assert arrival == 4

    def test_multi_flit_serialization(self):
        net = WormholeNetwork(MESH, router_delay=3)
        arrival = net.transfer(0, 1, 0, DATA_FLITS)
        assert arrival == 4 + 4  # head at 4, tail 4 cycles later

    def test_matches_uncontended_formula(self):
        # A fresh network delivers in exactly uncontended_latency, for
        # every pair on both models, pristine and under a plan whose
        # detours are longer than Manhattan (12 -> 17 takes 7 hops, not
        # 5) and cross a hotspot router.
        detour = DegradedTopology(MESH, FaultPlan.parse(DETOUR_PLAN))
        cases = itertools.product(
            (AnalyticNetwork, WormholeNetwork), (None, detour),
            MESH.nodes(), MESH.nodes(), (1, 2, 5),
        )
        for model, topo, src, dst, flits in cases:
            net = model(MESH, router_delay=3)
            net.apply_faults(topo)
            expected = net.uncontended_latency(src, dst, flits)
            arrival = net.transfer(src, dst, 100, flits)
            assert arrival - 100 == expected, (model, topo, src, dst)

    def test_local_delivery_is_free(self):
        net = WormholeNetwork(MESH)
        assert net.transfer(4, 4, 100, CONTROL_FLITS) == 100
        assert net.stats.total_latency == 0


class TestWormholeContention:
    def test_second_packet_waits_for_link(self):
        net = WormholeNetwork(MESH, router_delay=3)
        t1 = net.transfer(0, 1, 0, DATA_FLITS)
        t2 = net.transfer(0, 1, 0, DATA_FLITS)
        assert t2 > t1  # the shared link serializes the worms
        assert net.stats.total_queueing > 0

    def test_disjoint_paths_do_not_interfere(self):
        net = WormholeNetwork(MESH, router_delay=3)
        t_a = net.transfer(0, 1, 0, CONTROL_FLITS)
        t_b = net.transfer(30, 31, 0, CONTROL_FLITS)
        assert t_a == t_b == 4

    def test_zero_latency_mode(self):
        net = WormholeNetwork(MESH, zero_latency=True)
        assert net.transfer(0, 35, 7, DATA_FLITS) == 7
        assert net.stats.avg_latency == 0.0


class TestAnalytic:
    def test_uncontended_matches_wormhole(self):
        worm = WormholeNetwork(MESH, router_delay=3)
        analytic = AnalyticNetwork(MESH, router_delay=3)
        assert analytic.transfer(2, 17, 0, CONTROL_FLITS) == \
            worm.transfer(2, 17, 0, CONTROL_FLITS)

    def test_contention_raises_latency(self):
        analytic = AnalyticNetwork(MESH, router_delay=3, window=64)
        base = analytic.uncontended_latency(0, 5, 5)
        last = 0
        for k in range(200):
            last = analytic.transfer(0, 5, k, DATA_FLITS) - k
        assert last > base

    def test_tracks_wormhole_on_random_traffic(self):
        import random

        rng = random.Random(3)
        traffic = []
        t = 0
        for _ in range(400):
            t += rng.randint(0, 3)
            src, dst = rng.randrange(36), rng.randrange(36)
            traffic.append((src, dst, t))
        worm = WormholeNetwork(MESH, router_delay=3)
        analytic = AnalyticNetwork(MESH, router_delay=3)
        for src, dst, time in traffic:
            worm.transfer(src, dst, time, DATA_FLITS)
            analytic.transfer(src, dst, time, DATA_FLITS)
        w, a = worm.stats.avg_latency, analytic.stats.avg_latency
        assert a == pytest.approx(w, rel=0.35)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            AnalyticNetwork(MESH, window=0)


class TestStats:
    def test_stats_accumulate(self):
        net = WormholeNetwork(MESH)
        net.transfer(0, 5, 0, CONTROL_FLITS)
        net.transfer(5, 0, 50, DATA_FLITS)
        s = net.stats
        assert s.packets == 2
        assert s.flits == 1 + 5
        assert s.total_hops == 10
        assert s.flit_hops == 1 * 5 + 5 * 5
        assert s.avg_hops == 5.0

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=30)
    def test_latency_never_negative(self, src, dst):
        net = WormholeNetwork(MESH)
        arrival = net.transfer(src, dst, 5, CONTROL_FLITS)
        assert arrival >= 5
