"""The 21-benchmark suite: registry, structure, instantiability."""

import pytest

from repro.ir.dependence import validate_parallelism
from repro.workloads import (
    KNL_SCALING_APPS,
    LAYOUT_COMPARISON_APPS,
    SUITE_ORDER,
    build_suite,
    build_workload,
    suite_properties,
)


class TestRegistry:
    def test_exactly_21_benchmarks(self):
        assert len(SUITE_ORDER) == 21
        assert len(set(SUITE_ORDER)) == 21

    def test_paper_subsets(self):
        assert len(LAYOUT_COMPARISON_APPS) == 6
        assert len(KNL_SCALING_APPS) == 9
        assert set(LAYOUT_COMPARISON_APPS) <= set(SUITE_ORDER)
        assert set(KNL_SCALING_APPS) <= set(SUITE_ORDER)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_workload("doom")
        with pytest.raises(KeyError):
            build_suite(["mxm", "doom"])

    def test_build_suite_subset_in_order(self):
        suite = build_suite(["fft", "mxm"])
        assert [w.name for w in suite] == ["fft", "mxm"]

    def test_regular_irregular_split(self):
        suite = build_suite()
        regular = {w.name for w in suite if w.regular}
        assert "mxm" in regular and "jacobi-3d" in regular
        assert "nbf" not in regular and "barnes" not in regular
        assert len(regular) == 10  # 10 regular + 11 irregular


@pytest.mark.parametrize("name", SUITE_ORDER)
class TestEveryWorkload:
    def test_instantiates_at_small_scale(self, name):
        workload = build_workload(name)
        instance = workload.instantiate(scale=0.25)
        assert instance.total_iterations() > 0

    def test_addresses_computable_everywhere(self, name):
        workload = build_workload(name)
        instance = workload.instantiate(scale=0.25)
        for nest_index in range(len(instance.program.nests)):
            dom = instance.nest_domain(nest_index)
            for linear in (0, dom.size // 2, dom.size - 1):
                bindings = dom.iteration(linear)
                addrs = instance.addresses_for(nest_index, bindings)
                assert addrs
                assert all(a >= 0 for a, _ in addrs)

    def test_parallel_annotations_validate(self, name):
        workload = build_workload(name)
        for nest in workload.program.nests:
            validate_parallelism(nest)

    def test_irregular_workloads_have_trips_and_index_arrays(self, name):
        workload = build_workload(name)
        if workload.regular:
            assert workload.trips == 1
        else:
            assert workload.trips >= 3
            instance = workload.instantiate(scale=0.25)
            assert instance.runtime  # index arrays materialized

    def test_every_nest_has_a_write(self, name):
        workload = build_workload(name)
        for nest in workload.program.nests:
            assert nest.writes, f"{nest.name} writes nothing"

    def test_footprint_exceeds_shared_llc(self, name):
        """At full scale the data must overflow the (scaled) shared LLC,
        or there is no steady-state off-chip traffic to optimize."""
        workload = build_workload(name)
        instance = workload.instantiate(scale=1.0)
        shared_llc = 36 * 8 * 1024
        assert instance.space.total_bytes() > shared_llc


class TestSuiteProperties:
    def test_table3_rows(self):
        rows = suite_properties()
        assert len(rows) == 21
        for row in rows:
            assert row["loop_nests"] >= 1
            assert row["arrays"] >= 1
            assert row["iteration_sets"] > 30
