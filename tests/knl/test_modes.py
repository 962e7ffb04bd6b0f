"""KNL cluster modes as distribution policies."""

from repro.knl.machine import knl_config
from repro.knl.modes import (
    ClusterMode,
    KnlDistribution,
    first_touch_pages,
    quadrant_of_node,
)
from repro.memory.address import AddressLayout

LAYOUT = AddressLayout(line_bytes=64, page_bytes=2048)


def make_dist(mode, page_to_quadrant=None):
    return KnlDistribution(
        num_mcs=4, num_llc_banks=36, layout=LAYOUT,
        mode=mode, mesh_width=6, mesh_height=6,
        page_to_quadrant=page_to_quadrant,
    )


class TestQuadrantGeometry:
    def test_corners(self):
        assert quadrant_of_node(0, 6, 6) == 0       # (0,0) top-left
        assert quadrant_of_node(5, 6, 6) == 1       # (5,0) top-right
        assert quadrant_of_node(30, 6, 6) == 2      # (0,5) bottom-left
        assert quadrant_of_node(35, 6, 6) == 3      # (5,5) bottom-right

    def test_quadrants_are_equal_sized(self):
        counts = [0] * 4
        for node in range(36):
            counts[quadrant_of_node(node, 6, 6)] += 1
        assert counts == [9, 9, 9, 9]


class TestAllToAll:
    def test_banks_spread_widely(self):
        dist = make_dist(ClusterMode.ALL_TO_ALL)
        banks = {dist.bank_of(line * 64) for line in range(500)}
        assert len(banks) > 30

    def test_deterministic(self):
        dist = make_dist(ClusterMode.ALL_TO_ALL)
        assert dist.bank_of(12345) == dist.bank_of(12345)
        assert dist.mc_of(12345) == dist.mc_of(12345)


class TestQuadrantMode:
    def test_bank_and_mc_share_quadrant(self):
        dist = make_dist(ClusterMode.QUADRANT)
        for page in range(100):
            addr = page * 2048
            bank_quadrant = quadrant_of_node(dist.bank_of(addr), 6, 6)
            mc = dist.mc_of(addr)
            # MC's corner node lives in the same quadrant.
            mc_nodes = {0: 0, 1: 5, 2: 35, 3: 30}
            assert quadrant_of_node(mc_nodes[mc], 6, 6) == bank_quadrant

    def test_all_quadrants_used(self):
        dist = make_dist(ClusterMode.QUADRANT)
        quadrants = {
            quadrant_of_node(dist.bank_of(p * 2048), 6, 6) for p in range(16)
        }
        assert quadrants == {0, 1, 2, 3}


class TestSnc4:
    def test_first_touch_table_overrides_quadrant(self):
        table = {page: 2 for page in range(50)}
        dist = make_dist(ClusterMode.SNC4, page_to_quadrant=table)
        for page in range(50):
            addr = page * 2048
            assert quadrant_of_node(dist.bank_of(addr), 6, 6) == 2

    def test_missing_pages_fall_back(self):
        dist = make_dist(ClusterMode.SNC4, page_to_quadrant={})
        quadrants = {
            quadrant_of_node(dist.bank_of(p * 2048), 6, 6) for p in range(8)
        }
        assert len(quadrants) == 4

    def test_first_touch_builder(self):
        from repro.baselines.default import (
            default_schedules,
            partition_all_nests,
        )
        from repro.workloads import build_workload

        workload = build_workload("mxm")
        instance = workload.instantiate(scale=0.25)
        sets = partition_all_nests(instance, set_fraction=0.02)
        schedules = default_schedules(instance, sets, 36)
        table = first_touch_pages(
            instance, sets, schedules, LAYOUT, 6, 6
        )
        assert table
        assert set(table.values()) <= {0, 1, 2, 3}


class TestKnlConfig:
    def test_config_builds_knl_distribution(self):
        cfg = knl_config(ClusterMode.QUADRANT)
        dist = cfg.build_distribution()
        assert isinstance(dist, KnlDistribution)
        assert dist.mode is ClusterMode.QUADRANT

    def test_machine_buildable(self):
        from repro.sim.machine import Manycore
        from tests.sim.test_machine import run_access

        machine = Manycore(knl_config(ClusterMode.SNC4))
        completion, _, _ = run_access(
            machine, core=0, vaddr=0, is_write=False, time=0
        )
        assert completion > 0
