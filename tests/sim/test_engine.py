"""Execution engine: barriers, interleaving, observations, trips."""

import pytest

from repro.baselines.default import default_schedules, partition_all_nests
from repro.ir.arrays import declare
from repro.ir.builder import nest_builder
from repro.ir.loops import Program
from repro.ir.symbolic import Idx, Param
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.engine import ExecutionEngine, TripPlan
from repro.sim.machine import Manycore
from repro.sim.trace import ProgramTrace

I = Idx("i")
N = Param("N")


def two_nest_program(n=720):
    a = declare("A", N, elem_bytes=64)
    b = declare("B", N, elem_bytes=64)
    first = nest_builder("first").loop("i", 0, N).reads(a(I)).writes(b(I)).build()
    second = nest_builder("second").loop("i", 0, N).reads(b(I)).writes(a(I)).build()
    return Program("two", (first, second), default_params={"N": n})


def build_engine(program=None, config=DEFAULT_CONFIG):
    program = program or two_nest_program()
    inst = program.instantiate()
    sets = partition_all_nests(inst, set_fraction=0.02)
    machine = Manycore(config)
    trace = ProgramTrace(inst, sets)
    engine = ExecutionEngine(machine, trace)
    schedules = default_schedules(inst, sets, machine.mesh.num_nodes)
    return engine, schedules, sets


class TestExecution:
    def test_single_trip_executes_every_iteration(self):
        engine, schedules, _ = build_engine()
        stats = engine.run([TripPlan(schedules=schedules)])
        assert stats.iterations_executed == 720 * 2
        assert stats.execution_cycles > 0

    def test_missing_nest_schedule_rejected(self):
        engine, schedules, _ = build_engine()
        with pytest.raises(KeyError):
            engine.run([TripPlan(schedules={0: schedules[0]})])

    def test_empty_plan_list_rejected(self):
        engine, _, _ = build_engine()
        with pytest.raises(ValueError):
            engine.run([])

    def test_two_trips_cost_more_than_one(self):
        engine1, schedules, _ = build_engine()
        one = engine1.run([TripPlan(schedules=schedules)])
        engine2, schedules2, _ = build_engine()
        two = engine2.run([TripPlan(schedules=schedules2)] * 2)
        assert two.execution_cycles > one.execution_cycles
        assert two.iterations_executed == 2 * one.iterations_executed

    def test_start_cycle_offsets_clock(self):
        engine, schedules, _ = build_engine()
        base = engine.run([TripPlan(schedules=schedules)]).execution_cycles
        engine2, schedules2, _ = build_engine()
        shifted = engine2.run(
            [TripPlan(schedules=schedules2)], start_cycle=10_000
        ).execution_cycles
        assert shifted > 10_000

    def test_overhead_cycles_charged(self):
        engine1, s1, _ = build_engine()
        plain = engine1.run([TripPlan(schedules=s1)])
        engine2, s2, _ = build_engine()
        padded = engine2.run(
            [TripPlan(schedules=s2, overhead_cycles=5000)]
        )
        assert padded.execution_cycles == plain.execution_cycles + 5000
        assert padded.overhead_cycles == 5000


class TestObservations:
    def test_observation_table_populated(self):
        engine, schedules, sets = build_engine()
        engine.run([TripPlan(schedules=schedules, observe_label="x")])
        table = engine.observations["x"]
        assert table  # at least some sets saw L1 misses
        for (nest, set_id), entry in table.items():
            assert nest in (0, 1)
            assert entry.llc_accesses >= entry.llc_hits
            assert entry.miss_mc.sum() + entry.llc_hits == entry.llc_accesses

    def test_observed_mai_normalized(self):
        engine, schedules, _ = build_engine()
        engine.run([TripPlan(schedules=schedules, observe_label="x")])
        for (nest, sid) in list(engine.observations["x"])[:10]:
            mai = engine.observed_mai("x", nest, sid)
            assert mai is not None
            total = mai.sum()
            assert total == pytest.approx(1.0) or total == 0.0

    def test_unobserved_returns_none(self):
        engine, schedules, _ = build_engine()
        engine.run([TripPlan(schedules=schedules)])
        assert engine.observed_mai("nope", 0, 0) is None

    def test_labels_are_separate(self):
        engine, schedules, _ = build_engine()
        engine.run([TripPlan(schedules=schedules, observe_label="a")])
        engine.run(
            [TripPlan(schedules=schedules, observe_label="b")],
            start_cycle=10**6,
        )
        assert set(engine.observations) == {"a", "b"}


class TestLoadDistribution:
    def test_all_cores_used_by_round_robin(self):
        engine, schedules, _ = build_engine()
        engine.run([TripPlan(schedules=schedules)])
        # Round-robin over 50 sets uses (at least) 36 distinct cores.
        assert len(set(schedules[0].values())) == 36

    def test_single_core_schedule_is_serial(self):
        engine, schedules, sets = build_engine()
        serial = {n: {sid: 0 for sid in sched} for n, sched in schedules.items()}
        t_serial = engine.run([TripPlan(schedules=serial)]).execution_cycles
        engine2, schedules2, _ = build_engine()
        t_parallel = engine2.run(
            [TripPlan(schedules=schedules2)]
        ).execution_cycles
        assert t_serial > 3 * t_parallel
