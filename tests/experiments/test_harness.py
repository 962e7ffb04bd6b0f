"""Experiment harness: runs, comparisons, artifacts."""

import pytest

from repro.experiments.harness import MAPPINGS, compare, run_workload
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import build_workload

SCALE = 0.25  # smoke-test scale: mechanisms, not performance claims


@pytest.fixture(scope="module")
def mxm():
    return build_workload("mxm")


@pytest.fixture(scope="module")
def nbf():
    return build_workload("nbf")


class TestRunWorkload:
    def test_unknown_mapping_rejected(self, mxm):
        with pytest.raises(ValueError):
            run_workload(mxm, DEFAULT_CONFIG, mapping="magic", scale=SCALE)

    def test_default_run_produces_stats(self, mxm):
        result = run_workload(mxm, DEFAULT_CONFIG, scale=SCALE)
        s = result.stats
        assert s.execution_cycles > 0
        assert s.network_packets > 0
        assert s.iterations_executed > 0
        assert result.compiled is None

    def test_la_regular_produces_compiled(self, mxm):
        # Slightly larger scale so steady-state misses exist and observed
        # MAI vectors are non-empty.
        result = run_workload(
            mxm, DEFAULT_CONFIG, mapping="la", scale=0.6, observe=True
        )
        assert result.compiled is not None
        assert result.compiled.overhead_cycles == 0
        errors = result.mai_errors()
        assert errors and all(0.0 <= e <= 0.5 for e in errors)

    def test_la_irregular_produces_inspector_report(self, nbf):
        result = run_workload(
            nbf, DEFAULT_CONFIG, mapping="la", scale=SCALE, observe=True
        )
        assert result.compiled is not None
        assert result.stats.overhead_cycles > 0
        assert result.compiled.overhead_cycles == result.stats.overhead_cycles

    def test_modeled_trips_extrapolate(self, mxm):
        short = run_workload(mxm, DEFAULT_CONFIG, scale=SCALE, trips=3)
        long = run_workload(mxm, DEFAULT_CONFIG, scale=SCALE, trips=20)
        assert long.stats.execution_cycles > short.stats.execution_cycles

    def test_minimum_trips_enforced(self, mxm):
        with pytest.raises(ValueError):
            run_workload(mxm, DEFAULT_CONFIG, scale=SCALE, trips=2)

    @pytest.mark.parametrize("mapping", [m for m in MAPPINGS if m != "default"])
    def test_every_mapping_runs(self, mxm, mapping):
        result = run_workload(mxm, DEFAULT_CONFIG, mapping=mapping, scale=SCALE)
        assert result.stats.execution_cycles > 0


class TestCompare:
    def test_comparison_structure(self, mxm):
        comparison, base, opt = compare(mxm, DEFAULT_CONFIG, scale=SCALE)
        assert comparison.name == "mxm"
        assert comparison.baseline is base.stats
        assert comparison.optimized is opt.stats

    def test_same_seed_is_reproducible(self, mxm):
        c1, _, _ = compare(mxm, DEFAULT_CONFIG, scale=SCALE, seed=7)
        c2, _, _ = compare(mxm, DEFAULT_CONFIG, scale=SCALE, seed=7)
        assert (
            c1.optimized.execution_cycles == c2.optimized.execution_cycles
        )

    def test_ideal_network_bounds_execution(self, mxm):
        """Ideal network must be at least as fast as the real one."""
        real = run_workload(mxm, DEFAULT_CONFIG, scale=SCALE)
        ideal = run_workload(
            mxm, DEFAULT_CONFIG.ideal_network(), scale=SCALE
        )
        assert (
            ideal.stats.execution_cycles <= real.stats.execution_cycles
        )
