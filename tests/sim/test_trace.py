"""Vectorized trace generation vs the scalar reference path."""

import pytest

from repro.baselines.default import partition_all_nests
from repro.ir.arrays import declare
from repro.ir.builder import nest_builder
from repro.ir.loops import Program
from repro.ir.refs import gather
from repro.ir.symbolic import Idx, Param
from repro.sim.trace import ProgramTrace, binding_arrays

I, J = Idx("i"), Idx("j")
N = Param("N")


def regular_program():
    a = declare("A", N, N, elem_bytes=8)
    b = declare("B", N, N, elem_bytes=8)
    nest = (
        nest_builder("t").loop("i", 1, N - 1).loop("j", 0, N)
        .reads(a(I - 1, J), a(I + 1, J)).writes(b(I, J)).build()
    )
    return Program("t", (nest,), default_params={"N": 12})


def irregular_program():
    data = declare("D", N, elem_bytes=8)
    idx = declare("IDX", N, elem_bytes=8)
    out = declare("O", N, elem_bytes=8)
    nest = (
        nest_builder("g").loop("i", 0, N)
        .accesses(gather(data, idx, I, offset=1)).writes(out(I)).build()
    )
    return Program(
        "g", (nest,), default_params={"N": 50},
        index_array_builders={
            "IDX": lambda p, rng: rng.integers(0, p["N"] - 1, size=p["N"])
        },
    )


class TestBindingArrays:
    def test_values_match_scalar_iteration(self):
        inst = regular_program().instantiate()
        dom = inst.nest_domain(0)
        arrays = binding_arrays(dom, 5, 25)
        for offset, linear in enumerate(range(5, 25)):
            bindings = dom.iteration(linear)
            for name in dom.names:
                assert arrays[name][offset] == bindings[name]


class TestTraceMatchesScalar:
    @pytest.mark.parametrize("program_factory", [regular_program, irregular_program])
    def test_every_address_matches(self, program_factory):
        program = program_factory()
        inst = program.instantiate()
        sets = partition_all_nests(inst, set_fraction=0.05)
        trace = ProgramTrace(inst, sets)
        for nest_index, nest_sets in sets.items():
            dom = inst.nest_domain(nest_index)
            for iteration_set in nest_sets:
                st = trace.set_trace(nest_index, iteration_set)
                n_refs = st.refs_per_iteration
                assert len(st.flat_addresses) == iteration_set.size * n_refs
                assert len(st.flat_writes) == len(st.flat_addresses)
                for k, bindings in enumerate(iteration_set.iterations(dom)):
                    expected = inst.addresses_for(nest_index, bindings)
                    for r, (addr, is_write) in enumerate(expected):
                        assert st.addresses[k, r] == addr
                        assert st.writes[r] == is_write
                        assert st.flat_addresses[k * n_refs + r] == addr
                        assert st.flat_writes[k * n_refs + r] == is_write

    def test_trace_is_cached(self):
        inst = regular_program().instantiate()
        sets = partition_all_nests(inst, set_fraction=0.05)
        trace = ProgramTrace(inst, sets)
        first = trace.set_trace(0, sets[0][0])
        second = trace.set_trace(0, sets[0][0])
        assert first is second

    def test_total_accesses(self):
        inst = regular_program().instantiate()
        sets = partition_all_nests(inst, set_fraction=0.05)
        trace = ProgramTrace(inst, sets)
        dom = inst.nest_domain(0)
        assert trace.total_accesses() == dom.size * 3


class TestBoundsChecking:
    def test_vectorized_oob_detected(self):
        a = declare("A", N)
        nest = nest_builder("bad").loop("i", 0, N).writes(a(I + 1)).build()
        program = Program("bad", (nest,), default_params={"N": 10})
        inst = program.instantiate()
        sets = partition_all_nests(inst, set_fraction=1.0)
        trace = ProgramTrace(inst, sets)
        with pytest.raises(IndexError):
            trace.set_trace(0, sets[0][0])

    def test_later_set_out_of_bounds_fails_the_first_set_trace(self):
        """A nest is evaluated whole, so an out-of-range access in its
        last set fails the first set's trace."""
        a = declare("A", N)
        nest = nest_builder("bad").loop("i", 0, N).writes(a(I + 1)).build()
        program = Program("bad", (nest,), default_params={"N": 40})
        inst = program.instantiate()
        sets = partition_all_nests(inst, set_fraction=0.25)
        assert len(sets[0]) > 1 and sets[0][-1].stop == 40
        trace = ProgramTrace(inst, sets)
        with pytest.raises(IndexError):
            trace.set_trace(0, sets[0][0])
