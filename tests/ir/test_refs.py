"""Affine and indirect references."""

import numpy as np
import pytest

from repro.ir.arrays import ArraySpace, declare
from repro.ir.refs import UnresolvedIndirection, gather, read, scatter, write
from repro.ir.symbolic import Idx, Param

I, J = Idx("i"), Idx("j")
N = Param("N")


def make_space(*arrays, params=None):
    space = ArraySpace(page_bytes=2048)
    for arr in arrays:
        space.place(arr, params or {})
    return space


class TestAffineAccess:
    def test_address_of_simple_ref(self):
        a = declare("A", 10, elem_bytes=8)
        space = make_space(a)
        ref = read(a(I))
        assert ref.address({"i": 3}, space) == space.base("A") + 24

    def test_2d_with_offsets(self):
        a = declare("A", 8, 8, elem_bytes=8)
        space = make_space(a)
        ref = read(a(I + 1, J - 1))
        addr = ref.address({"i": 2, "j": 4}, space)
        assert addr == space.base("A") + (3 * 8 + 3) * 8

    def test_read_write_flags(self):
        a = declare("A", 4)
        assert not read(a(I)).is_write
        assert write(a(I)).is_write
        assert read(a(I)).is_regular

    def test_out_of_bounds(self):
        a = declare("A", 4)
        space = make_space(a)
        with pytest.raises(IndexError):
            read(a(I)).address({"i": 4}, space)


class TestIndirectAccess:
    def setup_method(self):
        self.data = declare("DATA", 100, elem_bytes=8)
        self.idx = declare("IDX", 10, elem_bytes=8)
        self.space = make_space(self.data, self.idx)
        self.runtime = {"IDX": np.array([5, 1, 99, 0, 7, 2, 3, 4, 6, 8])}

    def test_gather_resolves_through_index_array(self):
        ref = gather(self.data, self.idx, I)
        addr = ref.address({"i": 2}, self.space, self.runtime)
        assert addr == self.space.base("DATA") + 99 * 8

    def test_offset_applies_after_lookup(self):
        ref = gather(self.data, self.idx, I, offset=1)
        addr = ref.address({"i": 0}, self.space, self.runtime)
        assert addr == self.space.base("DATA") + 6 * 8

    def test_affine_position_expression(self):
        ref = gather(self.data, self.idx, 2 * I + 1)
        addr = ref.address({"i": 1}, self.space, self.runtime)
        assert addr == self.space.base("DATA") + 0 * 8  # IDX[3] == 0

    def test_scatter_is_write(self):
        assert scatter(self.data, self.idx, I).is_write
        assert not gather(self.data, self.idx, I).is_regular

    def test_missing_runtime_data(self):
        ref = gather(self.data, self.idx, I)
        with pytest.raises(UnresolvedIndirection):
            ref.address({"i": 0}, self.space, None)
        with pytest.raises(UnresolvedIndirection):
            ref.address({"i": 0}, self.space, {})

    def test_position_out_of_bounds(self):
        ref = gather(self.data, self.idx, I)
        with pytest.raises(IndexError):
            ref.address({"i": 10}, self.space, self.runtime)

    def test_trailing_dims(self):
        mat = declare("MAT", 100, 4, elem_bytes=8)
        space = make_space(mat, self.idx)
        ref = gather(mat, self.idx, I, trailing=[J])
        addr = ref.address({"i": 0, "j": 2}, space, self.runtime)
        assert addr == space.base("MAT") + (5 * 4 + 2) * 8

    def test_rank_mismatch_rejected(self):
        mat = declare("MAT", 100, 4)
        with pytest.raises(ValueError):
            gather(mat, self.idx, I)  # missing trailing index

    def test_multidim_index_array_rejected(self):
        idx2d = declare("IDX2", 4, 4)
        with pytest.raises(ValueError):
            gather(self.data, idx2d, I)
