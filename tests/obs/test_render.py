"""Unit tests for heatmap / table rendering of telemetry."""

import pytest

from repro.noc.topology import Mesh2D
from repro.obs import SpatialAccumulators, Telemetry, build_manifest
from repro.obs.render import (
    HEATMAP_METRICS,
    heatmap_csv,
    render_heatmap,
    render_histograms,
    render_link_utilization,
    render_manifest,
    render_node_values,
    render_phase_table,
)
from repro.sim.config import DEFAULT_CONFIG

MESH = Mesh2D(6, 6)


@pytest.fixture
def mesh():
    return DEFAULT_CONFIG.build_mesh()


@pytest.fixture
def spatial(mesh):
    spatial = SpatialAccumulators(mesh.num_nodes, DEFAULT_CONFIG.num_mcs)
    spatial.tile_accesses[:] = range(mesh.num_nodes)
    spatial.tile_l1_hits[:] = [v // 2 for v in range(mesh.num_nodes)]
    spatial.bank_requests[:] = 3
    spatial.bank_hits[:] = 2
    spatial.mc_requests[:] = [10, 20, 30, 40][: DEFAULT_CONFIG.num_mcs]
    spatial.record_link((0, 1), 12)
    spatial.record_link((1, 2), 7)
    spatial.bank_touches[:] = 1
    return spatial


class TestHeatmaps:
    @pytest.mark.parametrize("metric", HEATMAP_METRICS)
    def test_every_metric_renders_ascii(self, spatial, mesh, metric):
        out = render_heatmap(
            spatial, mesh, metric,
            region_w=DEFAULT_CONFIG.region_w,
            region_h=DEFAULT_CONFIG.region_h,
            title=f"t-{metric}",
        )
        assert f"t-{metric}" in out
        assert "total" in out and "peak" in out

    @pytest.mark.parametrize("metric", HEATMAP_METRICS)
    def test_every_metric_renders_csv(self, spatial, mesh, metric):
        out = heatmap_csv(spatial, mesh, metric)
        header = out.splitlines()[0]
        if metric == "link":
            assert header.startswith("src,dst")
            assert len(out.splitlines()) == 1 + 2  # two recorded links
        elif metric in ("mc", "mcqueue"):
            # MC metrics emit one row per controller, at its mesh node.
            assert header == "node,x,y,value"
            assert len(out.splitlines()) == 1 + DEFAULT_CONFIG.num_mcs
        else:
            assert header == "node,x,y,value"
            assert len(out.splitlines()) == 1 + mesh.num_nodes

    def test_mc_metric_lands_on_mc_nodes(self, spatial, mesh):
        out = heatmap_csv(spatial, mesh, "mc")
        values = {
            int(row.split(",")[0]): int(row.split(",")[3])
            for row in out.splitlines()[1:]
        }
        for i in range(DEFAULT_CONFIG.num_mcs):
            assert values[mesh.mc_node(i)] == spatial.mc_requests[i]

    def test_unknown_metric_rejected(self, spatial, mesh):
        with pytest.raises(ValueError):
            render_heatmap(spatial, mesh, "nope")


class TestTables:
    def test_phase_table(self):
        tele = Telemetry()
        with tele.phase("sim"):
            pass
        out = render_phase_table(tele)
        assert "sim" in out and "share" in out

    def test_phase_table_empty(self):
        assert "no phases" in render_phase_table(Telemetry())

    def test_histogram_table(self):
        tele = Telemetry()
        tele.histogram("lat").record(4)
        out = render_histograms(tele)
        assert "lat" in out and "p99" in out
        assert "no histograms" in render_histograms(Telemetry())

    def test_manifest_rendering(self):
        manifest = build_manifest(
            DEFAULT_CONFIG, seed=1, phase_seconds={"sim": 0.5}
        )
        out = render_manifest(manifest)
        assert "config_hash" in out
        assert "phase sim" in out
        assert "no manifest" in render_manifest(None)


class TestNodeGrid:
    def test_grid_dimensions(self):
        out = render_node_values(MESH, {0: 1.0})
        assert len(out.splitlines()) == 6

    def test_region_separators(self):
        out = render_node_values(
            MESH, {}, region_w=2, region_h=2
        )
        lines = out.splitlines()
        assert len(lines) == 6 + 2  # two horizontal rules
        assert any(set(line) == {"-"} for line in lines)
        assert "|" in lines[0]

    def test_values_appear(self):
        out = render_node_values(MESH, {0: 42.0}, fmt="{:4.0f}")
        assert "42" in out


def test_link_utilization_ranking():
    flits = {(0, 1): 100, (1, 2): 5}
    out = render_link_utilization(MESH, flits, top=1)
    assert "100" in out and "5" not in out.split("\n", 1)[1]
