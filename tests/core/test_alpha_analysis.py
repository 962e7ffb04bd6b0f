"""Alpha determination and MAI/CAI construction from classified accesses."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.snuca import LLCOrganization
from repro.cme.equations import ClassifiedAccess
from repro.core.alpha import MAX_ALPHA, clamp_alpha, determine_alpha
from repro.core.analysis import (
    ArchitectureView,
    build_cai,
    build_mai,
    build_set_affinity,
    mai_error,
)
from repro.core.regions import default_partition
from repro.memory.address import AddressLayout
from repro.memory.distribution import DataDistribution, Granularity
from repro.noc.topology import Mesh2D

LAYOUT = AddressLayout(line_bytes=64, page_bytes=2048)


@pytest.fixture
def view():
    partition = default_partition(Mesh2D(6, 6))
    dist = DataDistribution(
        num_mcs=4, num_llc_banks=36, layout=LAYOUT,
        bank_granularity=Granularity.PAGE,
    )
    return ArchitectureView(partition=partition, distribution=dist)


class TestAlpha:
    def test_paper_examples(self):
        assert determine_alpha(2, 4) == 0.5
        assert determine_alpha(1, 4) == 0.25

    def test_all_hits_clamped_below_one(self):
        assert determine_alpha(4, 4) == MAX_ALPHA < 1.0

    def test_no_accesses_defaults_to_half(self):
        assert determine_alpha(0, 0) == 0.5

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            determine_alpha(5, 4)
        with pytest.raises(ValueError):
            determine_alpha(-1, 4)

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_always_in_range(self, hits, extra):
        total = hits + extra
        if total == 0:
            assert determine_alpha(0, 0) == 0.5
        else:
            assert 0.0 <= determine_alpha(hits, total) < 1.0

    def test_clamp(self):
        assert clamp_alpha(-0.5) == 0.0
        assert clamp_alpha(2.0) == MAX_ALPHA
        assert clamp_alpha(0.3) == 0.3


def miss(addr):
    return ClassifiedAccess(vaddr=addr, is_write=False, llc_hit=False)


def hit(addr):
    return ClassifiedAccess(vaddr=addr, is_write=False, llc_hit=True)


class TestVectorConstruction:
    def test_mai_counts_misses_by_mc(self, view):
        accesses = [
            miss(0),          # page 0 -> MC0
            miss(2048),       # page 1 -> MC1
            miss(4 * 2048),   # page 4 -> MC0
            hit(3 * 2048),    # hits don't contribute to MAI
        ]
        mai = build_mai(accesses, view)
        assert mai == pytest.approx([2 / 3, 1 / 3, 0, 0])

    def test_cai_counts_hits_by_bank_region(self, view):
        # page 0 -> bank 0 (node (0,0), region 0);
        # page 35 -> bank 35 (node (5,5), region 8).
        accesses = [hit(0), hit(0), hit(35 * 2048), miss(2048)]
        cai = build_cai(accesses, view)
        assert cai[0] == pytest.approx(2 / 3)
        assert cai[8] == pytest.approx(1 / 3)

    def test_private_affinity_has_no_cai(self, view):
        affinity = build_set_affinity(
            3, [miss(0)], view, LLCOrganization.PRIVATE, iterations=10
        )
        assert affinity.cai is None
        assert affinity.iterations == 10

    def test_shared_affinity_has_cai_and_alpha(self, view):
        affinity = build_set_affinity(
            3, [hit(0), miss(2048)], view, LLCOrganization.SHARED
        )
        assert affinity.cai is not None
        assert affinity.alpha == 0.5

    def test_no_misses_yields_zero_mai(self, view):
        affinity = build_set_affinity(
            0, [hit(0)], view, LLCOrganization.SHARED
        )
        assert affinity.mai.sum() == 0.0


def test_mai_error_is_eta():
    a = np.array([1.0, 0, 0, 0])
    b = np.array([0.5, 0.5, 0, 0])
    assert mai_error(a, b) == pytest.approx(0.25)
