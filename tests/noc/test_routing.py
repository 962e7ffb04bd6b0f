"""X-Y routing: path shape, hop counts, dimension order."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import WormholeNetwork
from repro.noc.routing import hop_count, path_coords, xy_links, xy_path
from repro.noc.topology import Mesh2D

MESH = Mesh2D(6, 6)
nodes = st.integers(0, MESH.num_nodes - 1)


def test_self_route_is_trivial():
    assert xy_path(MESH, 7, 7) == [7]
    assert xy_links(MESH, 7, 7) == []


def test_straight_line_route():
    src, dst = MESH.node_id((0, 2)), MESH.node_id((4, 2))
    path = path_coords(MESH, src, dst)
    assert path == [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2)]


def test_x_before_y():
    src, dst = MESH.node_id((1, 1)), MESH.node_id((3, 4))
    coords = path_coords(MESH, src, dst)
    # X changes first while Y stays fixed, then Y changes.
    assert coords[:3] == [(1, 1), (2, 1), (3, 1)]
    assert coords[3:] == [(3, 2), (3, 3), (3, 4)]


def test_negative_direction_routing():
    src, dst = MESH.node_id((4, 4)), MESH.node_id((1, 0))
    coords = path_coords(MESH, src, dst)
    assert coords[0] == (4, 4)
    assert coords[-1] == (1, 0)
    assert len(coords) == 1 + 3 + 4


@given(nodes, nodes)
def test_path_length_is_manhattan(src, dst):
    assert len(xy_path(MESH, src, dst)) == MESH.node_distance(src, dst) + 1
    assert hop_count(MESH, src, dst) == MESH.node_distance(src, dst)


@given(nodes, nodes)
def test_path_steps_are_adjacent(src, dst):
    path = xy_path(MESH, src, dst)
    for a, b in zip(path, path[1:]):
        assert MESH.node_distance(a, b) == 1


@given(nodes, nodes)
def test_links_match_path(src, dst):
    path = xy_path(MESH, src, dst)
    links = xy_links(MESH, src, dst)
    assert links == list(zip(path, path[1:]))


@given(nodes, nodes)
def test_deterministic(src, dst):
    assert xy_path(MESH, src, dst) == xy_path(MESH, src, dst)


def test_xy_asymmetry():
    """X-Y routing is not symmetric: A->B and B->A may use different links."""
    a, b = MESH.node_id((0, 0)), MESH.node_id((2, 2))
    fwd = set(xy_links(MESH, a, b))
    rev = {(v, u) for (u, v) in xy_links(MESH, b, a)}
    assert fwd != rev  # the turns happen at different corners


@pytest.mark.parametrize("model", [AnalyticNetwork, WormholeNetwork])
@pytest.mark.parametrize("width, height", [(1, 1), (1, 6), (4, 6), (6, 6), (8, 8)])
def test_route_table_is_xy(model, width, height):
    """Every route-table path maps back to the X-Y links, Manhattan long."""
    mesh = Mesh2D(width, height)
    net = model(mesh)
    assert list(net.links) == mesh.links()
    for src in mesh.nodes():
        for dst in mesh.nodes():
            path = net.path(src, dst)
            assert [net.links[i] for i in path] == xy_links(mesh, src, dst)
            assert len(path) == mesh.node_distance(src, dst)
            assert net.path(src, dst) is path  # filled once, then reused
