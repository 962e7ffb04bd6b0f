"""Memory controllers: request queueing in front of a DRAM channel.

Each MC owns one DRAM channel and a finite request buffer (250 entries,
Table 4).  Requests are serviced FCFS; if the buffer is full the requester
stalls until a slot frees up, which is how MC hot-spotting (the thing the
paper's mapping spreads out) turns into latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List

from .address import AddressLayout
from .dram import DramChannel, DramTimings


@dataclass
class ControllerStats:
    requests: int = 0
    total_latency: int = 0
    total_queue_delay: int = 0
    buffer_stalls: int = 0

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0

    @property
    def avg_queue_delay(self) -> float:
        return self.total_queue_delay / self.requests if self.requests else 0.0


class MemoryController:
    """FCFS memory controller with a bounded request buffer."""

    def __init__(
        self,
        index: int,
        timings: DramTimings,
        layout: AddressLayout,
        buffer_entries: int = 250,
        frontend_latency: int = 4,
        num_channels: int = 4,
    ):
        if buffer_entries < 1:
            raise ValueError("request buffer needs at least one entry")
        if num_channels < 1:
            raise ValueError("need at least one channel")
        self.index = index
        self.channel = DramChannel(timings, layout)
        self.buffer_entries = buffer_entries
        self.frontend_latency = frontend_latency
        self.num_channels = num_channels
        self.layout = layout
        self.stats = ControllerStats()
        # Service-rate derating injected by a fault plan (mc:I:throttle=F);
        # 1.0 is the pristine controller and changes nothing below.
        self.throttle = 1.0
        # Completion times of requests currently occupying buffer slots,
        # as a min-heap: the earliest to retire is always at [0].
        self._inflight: List[int] = []
        self._page_bits = layout.page_offset_bits
        self._page_mask = layout.page_bytes - 1
        # Lower bound used only for the queue-delay statistic.
        self._device_latency = timings.row_hit_latency

    def _channel_address(self, addr: int) -> int:
        """Compact the interleaved address into this channel's local space.

        Page-interleaving gives this MC every ``num_channels``-th page; bank
        and row bits must be taken *above* the channel-select bits or the
        channel would only ever exercise ``banks/num_channels`` of its banks.
        """
        bits = self._page_bits
        local_page = (addr >> bits) // self.num_channels
        return (local_page << bits) | (addr & self._page_mask)

    def access(self, addr: int, time: int) -> int:
        """Service a read/write for ``addr`` arriving at ``time``.

        Returns the cycle the data is ready to leave the MC.
        """
        start = time
        stats = self.stats
        # Retire finished requests, then stall if the buffer is still full.
        inflight = self._inflight
        while inflight and inflight[0] <= start:
            heappop(inflight)
        if len(inflight) >= self.buffer_entries:
            stats.buffer_stalls += 1
            start = inflight[0]
            while inflight and inflight[0] <= start:
                heappop(inflight)
        issue = start + self.frontend_latency
        done = self.channel.access(self._channel_address(addr), issue)
        if self.throttle < 1.0:
            # A throttled MC services the same request in proportionally
            # more cycles, which also holds its buffer slot longer.
            done = issue + int(math.ceil((done - issue) / self.throttle))
        heappush(inflight, done)
        stats.requests += 1
        stats.total_latency += done - time
        stats.total_queue_delay += (start - time) + (
            done - issue - self._device_latency
        )
        return done
