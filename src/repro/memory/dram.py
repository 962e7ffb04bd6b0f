"""DRAM device timing: banks, row buffers, DDR3/DDR4 presets.

Each memory controller owns one channel with one rank of several banks
(Table 4: 1 rank/channel, 8 banks/rank, 2 KB row buffer, DDR3-1333).  The
model is the classic three-case row-buffer automaton:

* **row hit**      -- the requested row is open:   ``tCL``
* **row closed**   -- bank precharged:              ``tRCD + tCL``
* **row conflict** -- another row open:             ``tRP + tRCD + tCL``

plus the data burst.  Timings are expressed in core cycles (1 GHz core,
Table 4).  Figure 12 repeats the main experiment with DDR-4; the DDR4 preset
has more banks and a faster burst but slightly higher absolute latencies,
which is what makes the paper's relative savings "a bit lower" there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .address import AddressLayout


@dataclass(frozen=True)
class DramTimings:
    """Latency parameters of a DRAM generation, in core cycles."""

    name: str
    banks_per_rank: int
    t_cl: int      # column access (row already open)
    t_rcd: int     # activate (row closed -> open)
    t_rp: int      # precharge (close an open row)
    burst: int     # data transfer of one cache line
    row_bytes: int = 2048

    @property
    def row_hit_latency(self) -> int:
        return self.t_cl + self.burst

    @property
    def row_closed_latency(self) -> int:
        return self.t_rcd + self.t_cl + self.burst

    @property
    def row_conflict_latency(self) -> int:
        return self.t_rp + self.t_rcd + self.t_cl + self.burst


DDR3_1333 = DramTimings(
    name="DDR3-1333", banks_per_rank=8, t_cl=14, t_rcd=14, t_rp=14, burst=8
)

DDR4_2400 = DramTimings(
    name="DDR4-2400", banks_per_rank=16, t_cl=16, t_rcd=16, t_rp=16, burst=4
)


@dataclass
class DramBankState:
    open_row: Optional[int] = None
    busy_until: int = 0


@dataclass
class DramStats:
    reads: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    row_closed: int = 0
    total_latency: int = 0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.reads if self.reads else 0.0

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.reads if self.reads else 0.0


class DramChannel:
    """One rank of banks behind a single memory controller.

    ``frfcfs_window`` approximates an FR-FCFS scheduler: a request whose row
    was touched in the same bank within the window is treated as a row hit,
    because a real controller would have batched it with the earlier
    same-row requests instead of honoring arrival order.  Set to 0 for a
    strict in-order (FCFS) controller.
    """

    _RECENT_ROWS = 8  # rows an FR-FCFS queue can realistically hold per bank

    def __init__(
        self,
        timings: DramTimings,
        layout: AddressLayout,
        frfcfs_window: int = 800,
    ):
        self.timings = timings
        self.layout = layout
        self.frfcfs_window = frfcfs_window
        self._banks: List[DramBankState] = [
            DramBankState() for _ in range(timings.banks_per_rank)
        ]
        self._recent: List[Dict[int, int]] = [
            {} for _ in range(timings.banks_per_rank)
        ]
        self.stats = DramStats()
        # (latency, bank occupancy) of the three row-buffer cases.  Latency
        # is what the requester waits; occupancy is how long the bank is
        # tied up.  Column accesses pipeline behind one another, so a row
        # hit occupies the bank only for its data burst, while row
        # activates/precharges serialize.
        self._row_hit = (timings.row_hit_latency, timings.burst)
        self._row_closed = (timings.row_closed_latency, timings.t_rcd + timings.burst)
        self._row_conflict = (
            timings.row_conflict_latency,
            timings.t_rp + timings.t_rcd + timings.burst,
        )

    def _decode(self, addr: int) -> (int, int):
        """(bank, row) of a physical address.

        Rows are row_bytes wide; consecutive rows rotate over banks so
        streaming accesses get bank-level parallelism.
        """
        row_global = addr // self.timings.row_bytes
        bank = row_global % len(self._banks)
        row = row_global // len(self._banks)
        return bank, row

    def access(self, addr: int, time: int) -> int:
        """Service an access arriving at ``time``; returns completion time."""
        bank_idx, row = self._decode(addr)
        bank = self._banks[bank_idx]
        recent = self._recent[bank_idx]
        start = max(time, bank.busy_until)
        stats = self.stats
        frfcfs_hit = (
            self.frfcfs_window > 0
            and row in recent
            and start - recent[row] <= self.frfcfs_window
        )
        if bank.open_row == row or frfcfs_hit:
            latency, occupancy = self._row_hit
            stats.row_hits += 1
        elif bank.open_row is None:
            latency, occupancy = self._row_closed
            stats.row_closed += 1
        else:
            latency, occupancy = self._row_conflict
            stats.row_conflicts += 1
        done = start + latency
        bank.open_row = row
        bank.busy_until = start + occupancy
        recent[row] = done
        if len(recent) > self._RECENT_ROWS:
            oldest = min(recent, key=recent.get)
            del recent[oldest]
        stats.reads += 1
        stats.total_latency += done - time
        return done
