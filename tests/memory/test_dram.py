"""DRAM channel: row-buffer automaton, FR-FCFS window, bank pipelining."""

from repro.memory.address import AddressLayout
from repro.memory.dram import DDR3_1333, DDR4_2400, DramChannel

LAYOUT = AddressLayout(line_bytes=64, page_bytes=2048)
ROW = DDR3_1333.row_bytes


def make_channel(frfcfs_window=0):
    return DramChannel(DDR3_1333, LAYOUT, frfcfs_window=frfcfs_window)


class TestRowBufferAutomaton:
    def test_first_access_is_row_closed(self):
        ch = make_channel()
        done = ch.access(0, time=0)
        assert done == DDR3_1333.row_closed_latency
        assert ch.stats.row_closed == 1

    def test_same_row_hits(self):
        ch = make_channel()
        t = ch.access(0, time=0)
        t2 = ch.access(64, time=t)
        assert t2 - t == DDR3_1333.row_hit_latency
        assert ch.stats.row_hits == 1

    def test_conflict_same_bank_different_row(self):
        ch = make_channel()
        t = ch.access(0, time=0)
        # Same bank: rows rotate over 8 banks, so +8 rows is bank 0 again.
        conflict_addr = 8 * ROW
        t2 = ch.access(conflict_addr, time=t)
        assert t2 - t == DDR3_1333.row_conflict_latency
        assert ch.stats.row_conflicts == 1

    def test_different_banks_overlap(self):
        ch = make_channel()
        t1 = ch.access(0, time=0)
        t2 = ch.access(ROW, time=0)  # next row -> next bank
        # Bank-parallel: second access does not wait for the first.
        assert t2 == DDR3_1333.row_closed_latency

    def test_row_hits_pipeline(self):
        """Consecutive hits to an open row are spaced by the burst time."""
        ch = make_channel()
        ch.access(0, time=0)
        t1 = ch.access(64, time=100)
        t2 = ch.access(128, time=100)
        assert t2 - t1 == DDR3_1333.burst


class TestFrFcfs:
    def test_window_converts_interleaved_conflicts_to_hits(self):
        strict = make_channel(frfcfs_window=0)
        frfcfs = make_channel(frfcfs_window=400)
        # Two row streams to the same bank, interleaved.
        rows = [0, 8 * ROW]
        t_strict = t_fr = 0
        for k in range(10):
            addr = rows[k % 2] + 64 * (k // 2)
            t_strict = strict.access(addr, t_strict)
            t_fr = frfcfs.access(addr, t_fr)
        assert frfcfs.stats.row_hits > strict.stats.row_hits
        assert t_fr < t_strict

    def test_window_expires(self):
        ch = make_channel(frfcfs_window=50)
        ch.access(0, time=0)
        ch.access(8 * ROW, time=60)      # conflict, opens other row
        done = ch.access(64, time=1000)  # original row long gone
        assert ch.stats.row_hits == 0


class TestStatsAndReset:
    def test_stats_totals(self):
        ch = make_channel()
        ch.access(0, 0)
        ch.access(64, 100)
        assert ch.stats.reads == 2
        assert 0 < ch.stats.row_hit_rate < 1


class TestTimingPresets:
    def test_ddr4_has_more_banks_and_faster_burst(self):
        assert DDR4_2400.banks_per_rank > DDR3_1333.banks_per_rank
        assert DDR4_2400.burst < DDR3_1333.burst

    def test_latency_ordering(self):
        for timings in (DDR3_1333, DDR4_2400):
            assert (
                timings.row_hit_latency
                < timings.row_closed_latency
                < timings.row_conflict_latency
            )
