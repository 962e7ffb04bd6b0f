"""MOESI-lite directory: states, invalidations, owner forwarding."""

from repro.cache.coherence import Directory, DirState


LINE = 0x1000


class TestReads:
    def test_cold_read_becomes_shared(self):
        d = Directory()
        assert d.read(LINE, requester=3) == -1  # nothing to forward
        assert d.state_of(LINE) is DirState.SHARED
        assert d.sharers_of(LINE) == {3}

    def test_multiple_readers_accumulate(self):
        d = Directory()
        for node in (1, 2, 3):
            d.read(LINE, node)
        assert d.sharers_of(LINE) == {1, 2, 3}

    def test_read_of_dirty_line_forwards_from_owner(self):
        d = Directory()
        d.write(LINE, requester=5)
        assert d.read(LINE, requester=2) == 5
        assert d.sharers_of(LINE) == {5, 2}
        assert d.stats.owner_forwards == 1

    def test_owner_rereading_does_not_forward(self):
        d = Directory()
        d.write(LINE, requester=5)
        assert d.read(LINE, requester=5) == -1


class TestWrites:
    def test_write_invalidates_sharers(self):
        d = Directory()
        d.read(LINE, 1)
        d.read(LINE, 2)
        d.read(LINE, 3)
        forward, invalidate = d.write(LINE, requester=1)
        assert forward == -1
        assert invalidate == (2, 3)
        assert d.state_of(LINE) is DirState.OWNED
        assert d.sharers_of(LINE) == {1}

    def test_write_steals_ownership(self):
        d = Directory()
        d.write(LINE, 4)
        assert d.write(LINE, 7) == (4, (4,))
        assert d.sharers_of(LINE) == {7}

    def test_write_by_sole_sharer_sends_nothing(self):
        d = Directory()
        d.read(LINE, 6)
        assert d.write(LINE, 6) == (-1, ())

    def test_invalidation_count_statistic(self):
        d = Directory()
        for node in range(4):
            d.read(LINE, node)
        d.write(LINE, 0)
        assert d.stats.invalidations_sent == 3


class TestEviction:
    def test_owner_eviction_downgrades(self):
        d = Directory()
        d.write(LINE, 2)
        d.evict(LINE, 2)
        assert d.state_of(LINE) is DirState.INVALID
        assert d.stats.downgrade_writebacks == 1

    def test_owner_eviction_with_sharers_keeps_shared(self):
        d = Directory()
        d.write(LINE, 2)
        d.read(LINE, 3)
        d.evict(LINE, 2)
        assert d.state_of(LINE) is DirState.SHARED
        assert d.sharers_of(LINE) == {3}

    def test_last_sharer_eviction_invalidates(self):
        d = Directory()
        d.read(LINE, 1)
        d.evict(LINE, 1)
        assert d.state_of(LINE) is DirState.INVALID

    def test_evicting_unknown_line_is_noop(self):
        d = Directory()
        d.evict(0xDEAD, 1)
        assert d.state_of(0xDEAD) is DirState.INVALID


def test_node_zero_is_a_real_owner_and_sharer():
    """-1 means "none": node 0 must forward and be invalidated."""
    d = Directory()
    d.write(LINE, 0)
    assert d.read(LINE, 3) == 0
    assert d.write(LINE, 5) == (0, (0, 3))
    assert d.state_of(LINE) is DirState.OWNED
    d.evict(LINE, 5)
    assert d.state_of(LINE) is DirState.INVALID


def test_invalidations_are_sorted():
    d = Directory()
    for node in (30, 2, 17, 9):
        d.read(LINE, node)
    assert d.write(LINE, 17) == (-1, (2, 9, 30))


def test_independent_lines_do_not_interact():
    d = Directory()
    d.write(0x100, 1)
    d.read(0x200, 2)
    assert d.state_of(0x100) is DirState.OWNED
    assert d.state_of(0x200) is DirState.SHARED
