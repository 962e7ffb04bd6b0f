"""Loop nests, programs, instantiation."""

import numpy as np
import pytest

from repro.ir.arrays import declare
from repro.ir.builder import nest_builder
from repro.ir.loops import Program
from repro.ir.refs import gather
from repro.ir.symbolic import Idx, Param

I = Idx("i")
N = Param("N")


def axpy_program():
    a, b = declare("A", N), declare("B", N)
    nest = nest_builder("axpy").loop("i", 0, N).reads(b(I)).writes(a(I)).build()
    return Program("axpy", (nest,), default_params={"N": 100})


class TestLoopNest:
    def test_regularity(self):
        program = axpy_program()
        assert program.nests[0].is_regular
        assert program.is_regular

    def test_reads_writes_split(self):
        nest = axpy_program().nests[0]
        assert len(nest.reads) == 1
        assert len(nest.writes) == 1

    def test_arrays_discovered(self):
        nest = axpy_program().nests[0]
        assert sorted(arr.name for arr in nest.arrays()) == ["A", "B"]

    def test_index_array_counted_as_array(self):
        data = declare("D", N)
        idx = declare("IDX", N)
        nest = (
            nest_builder("g").loop("i", 0, N)
            .accesses(gather(data, idx, I)).writes(data(I)).build()
        )
        assert sorted(arr.name for arr in nest.arrays()) == ["D", "IDX"]

    def test_empty_nest_rejected(self):
        with pytest.raises(ValueError):
            nest_builder("empty").loop("i", 0, N).build()


class TestProgram:
    def test_instantiate_binds_params(self):
        inst = axpy_program().instantiate()
        assert inst.params["N"] == 100
        assert inst.nest_domain(0).size == 100

    def test_param_override(self):
        inst = axpy_program().instantiate(params={"N": 32})
        assert inst.nest_domain(0).size == 32

    def test_scale_multiplies_params(self):
        inst = axpy_program().instantiate(scale=0.5)
        assert inst.params["N"] == 50

    def test_addresses_for_iteration(self):
        inst = axpy_program().instantiate(params={"N": 10})
        addrs = inst.addresses_for(0, {"i": 3})
        assert len(addrs) == 2
        (b_addr, b_write), (a_addr, a_write) = addrs
        assert not b_write and a_write

    def test_irregularity_detection(self):
        data = declare("D", N)
        idx = declare("IDX", N)
        nest = (
            nest_builder("g").loop("i", 0, N)
            .accesses(gather(data, idx, I)).writes(data(I)).build()
        )
        program = Program(
            "g", (nest,), default_params={"N": 10},
            index_array_builders={
                "IDX": lambda params, rng: np.arange(params["N"])
            },
        )
        assert not program.is_regular
        inst = program.instantiate()
        assert len(inst.runtime["IDX"]) == 10

    def test_iter_accesses_covers_set(self):
        from repro.ir.iterspace import partition_iteration_sets

        inst = axpy_program().instantiate(params={"N": 40})
        sets = partition_iteration_sets(40, set_size=10)
        accesses = list(inst.iter_accesses(0, sets[1]))
        assert len(accesses) == 10 * 2

    def test_total_iterations(self):
        inst = axpy_program().instantiate(params={"N": 17})
        assert inst.total_iterations() == 17

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program("none", ())
