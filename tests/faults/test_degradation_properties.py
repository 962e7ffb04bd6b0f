"""Graceful-degradation property tests (hypothesis).

Random single-fault plans on random mesh geometries must never crash the
faults layer, every detour route must be cycle-free and arrive, and the
candidate-selection rule must never pick a mapping that prices worse than
the fault-oblivious fallback -- the theorem-form of "fault-aware NoC
latency <= fault-oblivious NoC latency", which the deterministic fault
matrix (:mod:`.test_fault_matrix`) then checks end to end in simulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.snuca import LLCOrganization
from repro.core.mapping import (
    FAULT_CANDIDATE_MARGIN_ESTIMATED,
    Mapper,
    SetAffinity,
)
from repro.core.regions import RegionPartition
from repro.faults import DegradedTopology, FaultPlan, FaultPlanError
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import WormholeNetwork
from repro.noc.packet import Packet
from repro.noc.topology import Mesh2D

# Geometries small enough to explore exhaustively but wide enough to have
# interior nodes; region 1x1 keeps every geometry partitionable.
geometries = st.tuples(st.integers(2, 6), st.integers(2, 6))


@st.composite
def single_fault_plans(draw):
    """(mesh, plan) with one random in-range fault of any kind."""
    width, height = draw(geometries)
    mesh = Mesh2D(width, height)
    kind = draw(st.sampled_from(("link", "mc", "bank", "router")))
    if kind == "link":
        x = draw(st.integers(0, width - 1))
        y = draw(st.integers(0, height - 1))
        neighbors = [
            (nx, ny)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if 0 <= nx < width and 0 <= ny < height
        ]
        nx, ny = draw(st.sampled_from(neighbors))
        action = draw(st.sampled_from(("down", "throttle=0.5")))
        spec = f"link:{x},{y}->{nx},{ny}:{action}"
    elif kind == "mc":
        mc = draw(st.integers(0, 3))
        action = draw(st.sampled_from(("offline", "throttle=0.5")))
        spec = f"mc:{mc}:{action}"
    elif kind == "bank":
        spec = f"bank:{draw(st.integers(0, width * height - 1))}:offline"
    else:
        x = draw(st.integers(0, width - 1))
        y = draw(st.integers(0, height - 1))
        extra = draw(st.integers(1, 16))
        spec = f"router:{x},{y}:hotspot=+{extra}cyc"
    return mesh, FaultPlan.parse([spec])


@given(single_fault_plans(), st.data())
@settings(max_examples=120, deadline=None)
def test_single_faults_never_crash_and_routes_arrive(mesh_plan, data):
    mesh, plan = mesh_plan
    assert plan.validate_against(mesh) == []
    topo = DegradedTopology(mesh, plan)
    # A single link fault cannot disconnect a 2D mesh with >= 2 columns
    # and rows: every node keeps at least one healthy incident path.
    assert topo.is_connected()
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, mesh.num_nodes - 1), label="dst")
    if src == dst:
        assert topo.distance_units(src, dst) == 0.0
        return
    route = topo.route(src, dst)
    nodes = [src] + [link[1] for link in route]
    # Contiguous hops, terminating at the destination, cycle-free.
    assert route[0][0] == src
    assert all(route[i][1] == route[i + 1][0] for i in range(len(route) - 1))
    assert nodes[-1] == dst
    assert len(set(nodes)) == len(nodes)
    # No hop may traverse a downed link.
    assert not (set(route) & set(topo.down))
    # Degradation only ever lengthens the effective distance.
    assert (
        topo.distance_units(src, dst)
        >= mesh.node_distance(src, dst) - 1e-9
    )
    # Both network models route through their tables exactly as the
    # degraded topology does.
    for model in (AnalyticNetwork, WormholeNetwork):
        net = model(mesh)
        net.apply_faults(topo)
        assert [net.links[i] for i in net.path(src, dst)] == route
        net.transfer(Packet.request(src, dst, time=0))
        assert net.stats.total_hops == len(route)


@pytest.mark.parametrize("model", [AnalyticNetwork, WormholeNetwork])
def test_disconnecting_plan_raises_on_first_packet_not_at_attach(model):
    # Cut all four links around the (0, 0) corner node.
    mesh = Mesh2D(6, 6)
    plan = FaultPlan.parse([
        "link:0,0->1,0:down", "link:1,0->0,0:down",
        "link:0,0->0,1:down", "link:0,1->0,0:down",
    ])
    net = model(mesh)
    net.apply_faults(DegradedTopology(mesh, plan))  # the table fills lazily
    assert net.transfer(Packet.request(7, 9, time=0)) > 0
    for _ in range(2):  # a failed route is not cached
        with pytest.raises(FaultPlanError):
            net.transfer(Packet.request(0, 3, time=0))
    assert net.stats.packets == 1


@st.composite
def random_affinities(draw, num_mcs, num_regions):
    n_sets = draw(st.integers(2, 8))
    affinities = []
    for set_id in range(n_sets):
        mai = np.asarray(
            draw(
                st.lists(
                    st.floats(0.0, 1.0), min_size=num_mcs, max_size=num_mcs
                )
            )
        )
        mai = mai / mai.sum() if mai.sum() > 0 else mai
        cai = np.asarray(
            draw(
                st.lists(
                    st.floats(0.0, 1.0),
                    min_size=num_regions,
                    max_size=num_regions,
                )
            )
        )
        cai = cai / cai.sum() if cai.sum() > 0 else cai
        affinities.append(
            SetAffinity(
                set_id=set_id,
                mai=mai,
                cai=cai,
                alpha=draw(st.floats(0.0, 1.0)),
                iterations=draw(st.integers(1, 100)),
            )
        )
    return affinities


@given(single_fault_plans(), st.data())
@settings(max_examples=40, deadline=None)
def test_fault_aware_never_prices_worse_than_oblivious(mesh_plan, data):
    """The selection theorem behind the latency guarantee.

    Whatever the plan and whatever the affinities, the schedule the
    candidate rule keeps prices <= the oblivious schedule under the
    degraded topology -- because the oblivious schedule itself is always
    one of the candidates.
    """
    mesh, plan = mesh_plan
    partition = RegionPartition(mesh, region_w=1, region_h=1)
    topo = DegradedTopology(mesh, plan)
    if frozenset(topo.online_mcs()) != frozenset(range(4)):
        # Offline-MC plans need the distribution remap context the full
        # pipeline provides; the pure-mapper theorem covers the rest.
        return
    aware = Mapper(
        partition, LLCOrganization.SHARED, faults=topo, seed=3
    )
    oblivious = Mapper(
        partition, LLCOrganization.SHARED, faults=None, seed=3
    )
    affinities = data.draw(
        random_affinities(
            num_mcs=4, num_regions=partition.num_regions
        ),
        label="affinities",
    )
    schedule_aware = aware.assign(affinities)
    schedule_oblivious = oblivious.assign(affinities)
    cost_aware = aware.predicted_cost(schedule_aware.set_to_region, affinities)
    cost_oblivious = aware.predicted_cost(
        schedule_oblivious.set_to_region, affinities
    )
    # The rule the compiler and inspector both apply:
    chosen = (
        schedule_aware
        if cost_aware
        < cost_oblivious * (1.0 - FAULT_CANDIDATE_MARGIN_ESTIMATED)
        else schedule_oblivious
    )
    chosen_cost = aware.predicted_cost(chosen.set_to_region, affinities)
    assert chosen_cost <= cost_oblivious + 1e-9
