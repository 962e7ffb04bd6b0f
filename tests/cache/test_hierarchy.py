"""Two-level hierarchy walk: outcomes, victims, coherence wiring.

``CacheHierarchy.access`` returns ``None`` on an L1 hit and otherwise
``(bank, llc_hit, llc_victim, forward, invalidate)``; the fast engine's
one-pass chunk walk must produce the same misses and the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.cache.snuca import LLCOrganization, SnucaMapper
from repro.memory.address import AddressLayout
from repro.memory.distribution import DataDistribution, Granularity
from repro.noc.topology import Mesh2D

LAYOUT = AddressLayout(line_bytes=64, page_bytes=2048)
MESH = Mesh2D(6, 6)
L1 = CacheConfig(size_bytes=512, assoc=2, line_bytes=32)
L2 = CacheConfig(size_bytes=2048, assoc=2, line_bytes=64)


def make_hierarchy(organization=LLCOrganization.SHARED):
    dist = DataDistribution(
        num_mcs=4, num_llc_banks=36, layout=LAYOUT,
        bank_granularity=Granularity.PAGE,
    )
    snuca = SnucaMapper(mesh=MESH, distribution=dist, organization=organization)
    return CacheHierarchy(36, snuca, l1_config=L1, l2_config=L2)


class TestAccessPath:
    def test_cold_access_goes_to_memory(self):
        h = make_hierarchy()
        bank, llc_hit, llc_victim, forward, invalidate = h.access(
            core=0, paddr=0, is_write=False
        )
        assert not llc_hit  # off to memory
        assert bank == 0
        assert (llc_victim, forward, invalidate) == (-1, -1, ())

    def test_l1_hit_touches_nothing_else(self):
        h = make_hierarchy()
        h.access(0, 0, False)
        assert h.access(0, 0, False) is None
        llc_accesses, _ = h.aggregate_llc_stats()
        assert llc_accesses == 1

    def test_llc_hit_after_l1_eviction(self):
        h = make_hierarchy()
        h.access(0, 0, False)
        # Evict line 0 from L1 (same L1 set: stride = 512 bytes at 16 sets).
        h.access(0, 512, False)
        h.access(0, 1024, False)
        outcome = h.access(0, 0, False)
        assert outcome is not None  # an L1 miss...
        assert outcome[1]  # ...that the LLC serves

    def test_remote_home_bank_in_shared_mode(self):
        h = make_hierarchy(LLCOrganization.SHARED)
        addr = 9 * 2048  # page 9 -> bank 9
        assert h.access(core=0, paddr=addr, is_write=False)[0] == 9

    def test_private_home_bank_is_requester(self):
        h = make_hierarchy(LLCOrganization.PRIVATE)
        assert h.access(core=13, paddr=9 * 2048, is_write=False)[0] == 13


class TestCoherenceIntegration:
    def test_write_after_remote_readers_invalidates(self):
        h = make_hierarchy()
        h.access(1, 0, False)
        h.access(2, 0, False)
        _, _, _, forward, invalidate = h.access(3, 0, True)
        assert invalidate == (1, 2)
        assert forward == -1

    def test_read_of_remotely_dirty_line_forwards(self):
        h = make_hierarchy()
        h.access(4, 0, True)
        _, _, _, forward, invalidate = h.access(5, 0, False)
        assert forward == 4
        assert invalidate == ()

    def test_core_zero_is_a_real_owner(self):
        h = make_hierarchy()
        h.access(0, 0, True)
        assert h.access(5, 0, False)[3] == 0
        assert h.access(6, 0, True)[4] == (0, 5)


class TestVictims:
    def test_dirty_llc_victim_reported(self):
        h = make_hierarchy()
        bank0 = 0
        # Fill bank 0's single LLC set beyond associativity with dirty lines.
        # Bank 0 homes pages {0, 36, 72, ...}; L2 has 16 sets of 64B lines,
        # so same-set lines within a page are 1024 bytes apart.
        h.access(0, 0, True)
        h.access(0, 1024, True)
        outcome = h.access(0, 36 * 2048, True)  # same bank, same set
        assert outcome[2] in (0, 1024)  # address 0 is a valid victim


class TestChunkPassMatchesScalarWalk:
    """``l1_bulk_cursor(...).consume_hits()`` chunk by chunk against
    scalar ``access`` on caches small enough that evictions, dirty
    victims, owner forwards and invalidations all occur."""

    TINY_L1 = CacheConfig(size_bytes=128, assoc=2, line_bytes=32)
    TINY_L2 = CacheConfig(size_bytes=256, assoc=2, line_bytes=64)

    def tiny_hierarchy(self, organization):
        dist = DataDistribution(
            num_mcs=2, num_llc_banks=4, layout=LAYOUT,
            bank_granularity=Granularity.CACHE_LINE,
        )
        snuca = SnucaMapper(
            mesh=Mesh2D(2, 2), distribution=dist, organization=organization
        )
        return CacheHierarchy(
            4, snuca, l1_config=self.TINY_L1, l2_config=self.TINY_L2
        )

    @staticmethod
    def contents(cache):
        return {
            idx: list(lines.items())
            for idx, lines in cache._sets.items()
            if lines
        }

    @staticmethod
    def stats(cache):
        s = cache.stats
        return (s.accesses, s.hits, s.evictions, s.dirty_evictions)

    chunks = st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(
                st.tuples(st.integers(0, 127), st.booleans()),
                min_size=1, max_size=24,
            ),
        ),
        min_size=1, max_size=12,
    )

    @pytest.mark.parametrize(
        "organization", [LLCOrganization.SHARED, LLCOrganization.PRIVATE]
    )
    @given(chunks=chunks)
    @settings(max_examples=60, deadline=None)
    def test_same_misses_and_state(self, organization, chunks):
        bulk = self.tiny_hierarchy(organization)
        scalar = self.tiny_hierarchy(organization)
        for core, stream in chunks:
            paddrs = [word * 8 for word, _ in stream]
            writes = [w for _, w in stream]
            expected = []
            for pos, (paddr, w) in enumerate(zip(paddrs, writes)):
                walk = scalar.access(core, paddr, w)
                if walk is not None:
                    expected.append((pos, walk))
            cursor = bulk.l1_bulk_cursor(
                core, np.array(paddrs, dtype=np.int64),
                np.array(writes, dtype=bool),
            )
            assert cursor.consume_hits() == expected
        for node in range(4):
            for a, b in ((bulk.l1(node), scalar.l1(node)),
                         (bulk.llc(node), scalar.llc(node))):
                assert self.contents(a) == self.contents(b)
                assert self.stats(a) == self.stats(b)
        assert bulk.directory._entries == scalar.directory._entries
        assert bulk.directory.stats == scalar.directory.stats
