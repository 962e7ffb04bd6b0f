"""Wormhole + analytic network models: latency, contention, stats."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import DegradedTopology, FaultPlan
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import WormholeNetwork
from repro.noc.packet import (
    CONTROL_FLITS,
    MessageKind,
    Packet,
    flits_for_payload,
)
from repro.noc.topology import Mesh2D

MESH = Mesh2D(6, 6)
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

    def test_request_is_single_flit(self):
        pkt = Packet.request(0, 5, time=10)
        assert pkt.num_flits == CONTROL_FLITS
        assert pkt.kind is MessageKind.REQUEST

    def test_data_response_carries_line(self):
        pkt = Packet.data_response(0, 5, time=0, line_bytes=64)
        assert pkt.num_flits == 5
        assert pkt.kind is MessageKind.DATA_RESPONSE

    def test_zero_flit_packet_rejected(self):
        with pytest.raises(ValueError):
            Packet(0, 1, MessageKind.CONTROL, 0, 0)


class TestWormholeUncontended:
    def test_single_hop_latency(self):
        net = WormholeNetwork(MESH, router_delay=3)
        pkt = Packet.request(0, 1, time=0)
        arrival = net.transfer(pkt)
        # 1 hop: 3 (router) + 1 (link) + 0 extra flits.
        assert arrival == 4

    def test_multi_flit_serialization(self):
        net = WormholeNetwork(MESH, router_delay=3)
        pkt = Packet.data_response(0, 1, time=0, line_bytes=64)  # 5 flits
        arrival = net.transfer(pkt)
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
            pkt = Packet(src, dst, MessageKind.CONTROL, flits, 100)
            assert net.transfer(pkt) - 100 == expected, (model, topo, src, dst)

    def test_local_delivery_is_free(self):
        net = WormholeNetwork(MESH)
        assert net.transfer(Packet.request(4, 4, time=100)) == 100
        assert net.stats.total_latency == 0


class TestWormholeContention:
    def test_second_packet_waits_for_link(self):
        net = WormholeNetwork(MESH, router_delay=3)
        first = Packet.data_response(0, 1, time=0, line_bytes=64)
        second = Packet.data_response(0, 1, time=0, line_bytes=64)
        t1 = net.transfer(first)
        t2 = net.transfer(second)
        assert t2 > t1  # the shared link serializes the worms
        assert net.stats.total_queueing > 0

    def test_disjoint_paths_do_not_interfere(self):
        net = WormholeNetwork(MESH, router_delay=3)
        a = Packet.request(0, 1, time=0)
        b = Packet.request(30, 31, time=0)
        t_a = net.transfer(a)
        t_b = net.transfer(b)
        assert t_a == t_b == 4

    def test_zero_latency_mode(self):
        net = WormholeNetwork(MESH, zero_latency=True)
        pkt = Packet.data_response(0, 35, time=7, line_bytes=64)
        assert net.transfer(pkt) == 7
        assert net.stats.avg_latency == 0.0


class TestAnalytic:
    def test_uncontended_matches_wormhole(self):
        worm = WormholeNetwork(MESH, router_delay=3)
        analytic = AnalyticNetwork(MESH, router_delay=3)
        pkt1 = Packet.request(2, 17, time=0)
        pkt2 = Packet.request(2, 17, time=0)
        assert analytic.transfer(pkt1) == worm.transfer(pkt2)

    def test_contention_raises_latency(self):
        analytic = AnalyticNetwork(MESH, router_delay=3, window=64)
        base = analytic.uncontended_latency(0, 5, 5)
        last = 0
        for k in range(200):
            pkt = Packet.data_response(0, 5, time=k, line_bytes=64)
            last = analytic.transfer(pkt) - k
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
            worm.transfer(Packet.data_response(src, dst, time, 64))
            analytic.transfer(Packet.data_response(src, dst, time, 64))
        w, a = worm.stats.avg_latency, analytic.stats.avg_latency
        assert a == pytest.approx(w, rel=0.35)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            AnalyticNetwork(MESH, window=0)


class TestStats:
    def test_stats_accumulate(self):
        net = WormholeNetwork(MESH)
        net.transfer(Packet.request(0, 5, time=0))
        net.transfer(Packet.data_response(5, 0, time=50, line_bytes=64))
        s = net.stats
        assert s.packets == 2
        assert s.flits == 1 + 5
        assert s.total_hops == 10
        assert s.flit_hops == 1 * 5 + 5 * 5
        assert s.avg_hops == 5.0

    def test_reset_clears(self):
        net = WormholeNetwork(MESH)
        net.transfer(Packet.request(0, 5, time=0))
        net.reset()
        assert net.stats.packets == 0
        assert net.link_busy_until((0, 1)) == 0

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=30)
    def test_latency_never_negative(self, src, dst):
        net = WormholeNetwork(MESH)
        arrival = net.transfer(Packet.request(src, dst, time=5))
        assert arrival >= 5
