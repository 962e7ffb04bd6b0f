"""End-to-end compiler pipeline and inspector-executor."""

import pytest

from repro.baselines.default import default_schedules, partition_all_nests
from repro.core.inspector import (
    INSPECT_LABEL,
    InspectorCost,
    InspectorExecutor,
)
from repro.core.pipeline import LocationAwareCompiler
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.engine import ExecutionEngine, TripPlan
from repro.sim.machine import Manycore
from repro.sim.trace import ProgramTrace
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def mxm_instance():
    return build_workload("mxm").instantiate(scale=0.25)


class TestCompilerPipeline:
    def test_compile_produces_full_schedules(self, mxm_instance):
        compiler = LocationAwareCompiler(DEFAULT_CONFIG)
        compiled = compiler.compile(mxm_instance)
        for nest_index, sets in compiled.iteration_sets.items():
            schedule = compiled.schedules[nest_index]
            assert set(schedule) == {s.set_id for s in sets}
            assert all(0 <= c < 36 for c in schedule.values())

    def test_affinities_stored_per_set(self, mxm_instance):
        compiler = LocationAwareCompiler(DEFAULT_CONFIG)
        compiled = compiler.compile(mxm_instance)
        sets = compiled.iteration_sets[0]
        for s in sets:
            affinity = compiled.affinities[(0, s.set_id)]
            assert affinity.mai.shape == (4,)
            assert affinity.cai is not None  # shared LLC default
            assert 0.0 <= affinity.alpha < 1.0

    def test_private_mode_skips_cai(self, mxm_instance):
        compiler = LocationAwareCompiler(DEFAULT_CONFIG.private_llc())
        compiled = compiler.compile(mxm_instance)
        affinity = next(iter(compiled.affinities.values()))
        assert affinity.cai is None

    def test_region_count_override(self, mxm_instance):
        compiler = LocationAwareCompiler(DEFAULT_CONFIG, num_regions=4)
        assert compiler.partition.num_regions == 4
        compiled = compiler.compile(mxm_instance)
        assert compiled.schedules

    def test_set_fraction_override(self, mxm_instance):
        small = LocationAwareCompiler(
            DEFAULT_CONFIG, iteration_set_fraction=0.01
        ).compile(mxm_instance)
        large = LocationAwareCompiler(
            DEFAULT_CONFIG, iteration_set_fraction=0.05
        ).compile(mxm_instance)
        assert len(small.schedules[0]) > len(large.schedules[0])

    def test_moved_fraction_in_range(self, mxm_instance):
        compiled = LocationAwareCompiler(DEFAULT_CONFIG).compile(mxm_instance)
        assert 0.0 <= compiled.avg_moved_fraction <= 1.0

    def test_deterministic(self, mxm_instance):
        a = LocationAwareCompiler(DEFAULT_CONFIG, seed=3).compile(mxm_instance)
        b = LocationAwareCompiler(DEFAULT_CONFIG, seed=3).compile(mxm_instance)
        assert a.schedules == b.schedules


class TestInspectorExecutor:
    def build(self, name="nbf", scale=0.25, config=DEFAULT_CONFIG,
              inspect=True):
        """An inspector over a fresh machine; with ``inspect`` the engine
        has already run the observed inspector trip."""
        workload = build_workload(name)
        instance = workload.instantiate(scale=scale)
        sets = partition_all_nests(
            instance, set_fraction=config.iteration_set_fraction
        )
        machine = Manycore(config)
        engine = ExecutionEngine(machine, ProgramTrace(instance, sets))
        compiler = LocationAwareCompiler(config)
        inspector = InspectorExecutor(
            engine, compiler.mapper, compiler.partition.region_of_node
        )
        base = default_schedules(instance, sets, 36)
        if inspect:
            engine.run([TripPlan(schedules=base, observe_label=INSPECT_LABEL)])
        return inspector, engine, base, sets

    def test_three_trip_run(self):
        inspector, engine, base, _ = self.build(inspect=False)
        inspect_end = engine.run(
            [TripPlan(schedules=base, observe_label=INSPECT_LABEL)]
        ).execution_cycles
        report = inspector.derive(base)
        assert report.schedules
        assert report.overhead_cycles > inspector.cost.fixed_cycles
        executor = engine.run(
            [
                TripPlan(schedules=report.schedules,
                         overhead_cycles=report.overhead_cycles),
                TripPlan(schedules=report.schedules),
            ],
            start_cycle=inspect_end,
        )
        assert executor.execution_cycles > inspect_end + report.overhead_cycles

    def test_derived_schedule_covers_all_sets(self):
        inspector, engine, base, sets = self.build()
        report = inspector.derive(base)
        for nest_index, nest_sets in sets.items():
            observed_ids = set(report.schedules[nest_index])
            # Every set that generated at least one L1 miss is scheduled;
            # in practice that is all of them for this workload.
            assert observed_ids == {s.set_id for s in nest_sets}

    def test_unobserved_nests_keep_round_robin(self):
        inspector, _, base, _ = self.build(inspect=False)
        report = inspector.derive(base)
        assert report.schedules == base
        assert not report.affinities
        assert report.overhead_cycles == inspector.cost.fixed_cycles

    def test_alpha_from_observation_is_valid(self):
        inspector, _, base, _ = self.build()
        report = inspector.derive(base)
        for affinity in report.affinities.values():
            assert 0.0 <= affinity.alpha < 1.0
            assert affinity.cai is not None


class TestInspectorCost:
    def test_cost_scales_with_work(self):
        cost = InspectorCost()
        small = cost.total_cycles(1000, 10, 36)
        large = cost.total_cycles(100_000, 10, 36)
        assert large > small

    def test_parallel_across_cores(self):
        cost = InspectorCost()
        one_core = cost.total_cycles(10_000, 100, 1)
        many = cost.total_cycles(10_000, 100, 36)
        assert many < one_core
