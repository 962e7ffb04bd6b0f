"""Set-associative LRU cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import HIT, MISS, BulkAccessCursor, Cache


def make_cache(size=1024, assoc=2, line=64):
    return Cache(size_bytes=size, assoc=assoc, line_bytes=line)


class TestBasics:
    def test_geometry(self):
        c = make_cache(size=1024, assoc=2, line=64)
        assert c.num_sets == 8

    def test_first_access_misses(self):
        c = make_cache()
        assert c.access(0) == MISS

    def test_second_access_hits(self):
        c = make_cache()
        c.access(128)
        assert c.access(128 + 63) == HIT  # same line

    def test_different_lines_are_distinct(self):
        c = make_cache()
        c.access(0)
        assert c.access(64) == MISS

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=1000, assoc=2, line_bytes=64)
        with pytest.raises(ValueError):
            Cache(size_bytes=1024, assoc=2, line_bytes=60)


class TestLru:
    def test_lru_eviction_order(self):
        c = make_cache(size=128, assoc=2, line=64)  # 1 set, 2 ways
        c.access(0)
        c.access(64)
        c.access(128)        # evicts line 0 (LRU)
        assert c.access(64) == HIT
        assert c.access(0) == MISS

    def test_touch_refreshes_lru(self):
        c = make_cache(size=128, assoc=2, line=64)
        c.access(0)
        c.access(64)
        c.access(0)          # refresh line 0
        c.access(128)        # now evicts 64
        assert c.access(0) == HIT
        assert c.access(64) == MISS


class TestDirtyEviction:
    def test_clean_eviction_returns_none(self):
        c = make_cache(size=128, assoc=2, line=64)
        c.access(0)
        c.access(64)
        assert c.access(128) == MISS
        assert c.stats.evictions == 1
        assert c.stats.dirty_evictions == 0

    def test_dirty_eviction_returns_victim_base(self):
        c = make_cache(size=128, assoc=2, line=64)
        c.access(0, is_write=True)
        c.access(64)
        assert c.access(128) == 0  # the victim's base address
        assert c.stats.dirty_evictions == 1

    def test_write_hit_marks_dirty(self):
        c = make_cache(size=128, assoc=2, line=64)
        c.access(0)
        c.access(0, is_write=True)
        c.access(64)
        assert c.access(128) == 0  # the victim's base address


class TestFillAndInvalidate:
    def test_fill_does_not_count_access(self):
        c = make_cache()
        c.fill(0)
        assert c.stats.accesses == 0
        assert c.access(0) == HIT

    def test_fill_dirty_writes_back_on_eviction(self):
        c = make_cache(size=128, assoc=2, line=64)
        c.fill(0, dirty=True)
        c.access(64)
        assert c.access(128) == 0  # the victim's base address

    def test_invalidate(self):
        c = make_cache()
        c.access(0)
        assert c.invalidate(0)
        assert not c.invalidate(0)
        assert c.access(0) == MISS

    def test_lookup_nondestructive(self):
        c = make_cache()
        assert not c.lookup(0)
        c.access(0)
        assert c.lookup(0)
        assert c.stats.accesses == 1


class TestProperties:
    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_occupancy_bounded(self, addrs):
        c = make_cache(size=512, assoc=4, line=64)
        for addr in addrs:
            c.access(addr)
        assert c.resident_lines() <= 512 // 64

    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_hits_plus_misses(self, addrs):
        c = make_cache()
        for addr in addrs:
            c.access(addr)
        assert c.stats.hits + c.stats.misses == len(addrs)

    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_immediate_rereference_always_hits(self, addrs):
        c = make_cache()
        for addr in addrs:
            c.access(addr)
            assert c.access(addr) == HIT


# ---------------------------------------------------------------------------
# BulkAccessCursor: one pass over a chunk must leave the L1 in exactly the
# state a scalar access-by-access walk would, and hand the level below the
# same misses, in order, with the same victims.
# ---------------------------------------------------------------------------

def record_miss(core, paddr, is_write, victim):
    """Stand-in for the hierarchy's miss step: echoes what it was given."""
    return paddr, is_write, victim


def drive_bulk(cache, addrs, writes):
    """Run a stream through one cursor pass; returns its miss records."""
    cursor = BulkAccessCursor(
        cache, 0, np.asarray(addrs, dtype=np.int64),
        np.asarray(writes, dtype=bool), record_miss,
    )
    return cursor.consume_hits()


def drive_scalar(cache, addrs, writes):
    """The same stream through :meth:`Cache.access`, as miss records."""
    misses = []
    for pos, (addr, w) in enumerate(zip(addrs, writes)):
        result = cache.access(addr, is_write=w)
        if result != HIT:
            misses.append((pos, (addr, w, result)))
    return misses


def full_state(cache):
    """(tag -> dirty) per set, in LRU order -- the complete observable state."""
    return {
        idx: list(lines.items())
        for idx, lines in cache._sets.items()
        if lines
    }


def stats_tuple(cache):
    s = cache.stats
    return (s.accesses, s.hits, s.evictions, s.dirty_evictions)


def assert_matches_scalar(addrs, writes, **geometry):
    scalar = make_cache(**geometry)
    expected = drive_scalar(scalar, addrs, writes)
    bulk = make_cache(**geometry)
    assert drive_bulk(bulk, addrs, writes) == expected
    assert stats_tuple(bulk) == stats_tuple(scalar)
    assert full_state(bulk) == full_state(scalar)
    return expected


class TestBulkCursor:
    def test_empty_stream(self):
        c = make_cache()
        assert drive_bulk(c, [], []) == []
        assert c.stats.accesses == 0

    def test_cold_stream_stops_at_every_line(self):
        c = make_cache()
        misses = drive_bulk(c, [0, 64, 128], [False] * 3)
        assert [pos for pos, _ in misses] == [0, 1, 2]
        assert c.stats.misses == 3

    def test_warm_stream_consumed_without_stopping(self):
        c = make_cache(size=2048, assoc=4, line=64)
        misses = drive_bulk(c, [0, 64, 0, 64, 0], [False] * 5)
        assert [pos for pos, _ in misses] == [0, 1]
        # A second chunk over resident lines is all hits.
        assert drive_bulk(c, [0, 64, 0], [False] * 3) == []
        assert (c.stats.accesses, c.stats.hits) == (8, 6)

    def test_line_evicted_since_its_first_use_misses_again(self):
        """Direct-mapped: 0 and 64 share a set, so the second use of 0 is a
        miss at its own position, not at the line's first one; the write
        hit at 8 makes line 0 a dirty victim of the miss at 64."""
        misses = assert_matches_scalar(
            [0, 8, 64, 0], [False, True, False, False],
            size=64, assoc=1, line=32,
        )
        assert misses == [
            (0, (0, False, MISS)), (2, (64, False, 0)), (3, (0, False, MISS)),
        ]

    def test_run_write_sets_dirty(self):
        c = make_cache()
        # Same line accessed read, write, read: one run, dirty must stick.
        drive_bulk(c, [0, 8, 16], [False, True, False])
        state = full_state(c)
        (idx, entries), = state.items()
        assert entries[0][1] is True

    @given(
        st.lists(st.integers(0, 2047), min_size=1, max_size=250),
        st.data(),
    )
    @settings(max_examples=60)
    def test_differential_vs_scalar_walk(self, addrs, data):
        writes = data.draw(
            st.lists(
                st.booleans(), min_size=len(addrs), max_size=len(addrs)
            )
        )
        assert_matches_scalar(addrs, writes, size=512, assoc=2, line=32)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_differential_on_clustered_streams(self, seed):
        """Streams with long same-line runs (the fast path's sweet spot)."""
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 64, size=40)
        addrs = np.repeat(base * 32, rng.integers(1, 12, size=40))
        writes = rng.random(len(addrs)) < 0.3
        assert_matches_scalar(
            addrs.tolist(), writes.tolist(), size=1024, assoc=4, line=32
        )

    def test_interleaved_invalidation_is_safe(self):
        """A line invalidated between chunks misses in the next one."""
        c = make_cache(size=2048, assoc=4, line=64)
        addrs, writes = [0, 0, 0, 0], [False] * 4
        assert [pos for pos, _ in drive_bulk(c, addrs, writes)] == [0]
        c.invalidate(0)
        assert [pos for pos, _ in drive_bulk(c, addrs, writes)] == [0]
        assert (c.stats.accesses, c.stats.hits) == (8, 6)
