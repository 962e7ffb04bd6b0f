"""End-to-end compiler pipeline: compile-time and inspector-observed."""

import numpy as np
import pytest

from repro.baselines.default import default_schedules, partition_all_nests
from repro.core.inspector import INSPECT_LABEL, InspectorCost, observed_affinity
from repro.core.pipeline import LocationAwareCompiler
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.engine import ExecutionEngine, ObservedSet, TripPlan
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
        """A compiler and engine over a fresh machine; with ``inspect`` the
        engine has already run the observed inspector trip."""
        workload = build_workload(name)
        instance = workload.instantiate(scale=scale)
        sets = partition_all_nests(
            instance, set_fraction=config.iteration_set_fraction
        )
        machine = Manycore(config)
        engine = ExecutionEngine(machine, ProgramTrace(instance, sets))
        compiler = LocationAwareCompiler(config)
        base = default_schedules(instance, sets, 36)
        if inspect:
            engine.run([TripPlan(schedules=base, observe_label=INSPECT_LABEL)])
        return compiler, engine, base, sets

    def test_three_trip_run(self):
        compiler, engine, base, _ = self.build(inspect=False)
        inspect_end = engine.run(
            [TripPlan(schedules=base, observe_label=INSPECT_LABEL)]
        ).execution_cycles
        compiled = compiler.compile_observed(
            engine.observations[INSPECT_LABEL], base
        )
        assert compiled.schedules
        assert compiled.overhead_cycles > InspectorCost().fixed_cycles
        executor = engine.run(
            [
                TripPlan(schedules=compiled.schedules,
                         overhead_cycles=compiled.overhead_cycles),
                TripPlan(schedules=compiled.schedules),
            ],
            start_cycle=inspect_end,
        )
        assert (executor.execution_cycles
                > inspect_end + compiled.overhead_cycles)

    def test_derived_schedule_covers_all_sets(self):
        compiler, engine, base, sets = self.build()
        compiled = compiler.compile_observed(
            engine.observations[INSPECT_LABEL], base
        )
        for nest_index, nest_sets in sets.items():
            observed_ids = set(compiled.schedules[nest_index])
            # Every set that generated at least one L1 miss is scheduled;
            # in practice that is all of them for this workload.
            assert observed_ids == {s.set_id for s in nest_sets}

    def test_unobserved_nests_keep_round_robin(self):
        compiler, _, base, _ = self.build(inspect=False)
        compiled = compiler.compile_observed({}, base)
        assert compiled.schedules == base
        assert not compiled.affinities
        assert compiled.overhead_cycles == InspectorCost().fixed_cycles

    def test_alpha_from_observation_is_valid(self):
        compiler, engine, base, _ = self.build()
        compiled = compiler.compile_observed(
            engine.observations[INSPECT_LABEL], base
        )
        for affinity in compiled.affinities.values():
            assert 0.0 <= affinity.alpha < 1.0
            assert affinity.cai is not None


class TestObservedAffinity:
    def test_cai_matches_per_bank_loop(self):
        """The bincount fold equals summing each bank's hits into its
        region one by one."""
        rng = np.random.default_rng(5)
        entry = ObservedSet(
            miss_mc=rng.integers(0, 50, size=4),
            hit_bank=rng.integers(0, 50, size=36) * (rng.random(36) < 0.6),
        )
        entry.llc_hits = int(entry.hit_bank.sum())
        entry.llc_accesses = entry.llc_hits + int(entry.miss_mc.sum())
        partition = LocationAwareCompiler(DEFAULT_CONFIG).partition
        bank_region = [partition.region_of_node(n) for n in range(36)]
        counts = np.zeros(partition.num_regions)
        for bank, hits in enumerate(entry.hit_bank):
            if hits:
                counts[bank_region[bank]] += hits
        affinity = observed_affinity(7, entry, bank_region)
        assert np.array_equal(affinity.cai, counts / counts.sum())
        assert np.array_equal(affinity.mai, entry.miss_mc / entry.miss_mc.sum())
        assert observed_affinity(7, entry).cai is None


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
