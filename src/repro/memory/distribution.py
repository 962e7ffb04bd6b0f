"""Distribution of physical addresses over memory controllers and LLC banks.

Table 4 ("Data Distribution") fixes the paper's defaults:

* physical pages are distributed over the memory controllers round-robin at
  **page** granularity, and
* addresses are distributed over the shared LLC banks round-robin at
  **cache-line** granularity (to maximize bank-level parallelism).

Figure 11 evaluates the other combinations -- (cache line, cache line),
(page, page) -- so both granularities are supported on both axes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .address import AddressLayout


class Granularity(enum.Enum):
    """Interleaving granularity of a distribution policy."""

    CACHE_LINE = "cache_line"
    PAGE = "page"


@dataclass(frozen=True)
class RoundRobinDistribution:
    """Round-robin interleaving of addresses over ``num_targets`` units."""

    num_targets: int
    granularity: Granularity
    layout: AddressLayout

    def __post_init__(self) -> None:
        if self.num_targets < 1:
            raise ValueError("need at least one target")

    @cached_property
    def _shift(self) -> int:
        """Address bits below the interleaving unit."""
        if self.granularity is Granularity.PAGE:
            return self.layout.page_offset_bits
        return self.layout.line_offset_bits

    def target(self, addr: int) -> int:
        """Index of the MC / LLC bank serving physical address ``addr``."""
        return (addr >> self._shift) % self.num_targets

    def target_batch(self, addrs):
        """Vectorized :meth:`target` over a numpy address array.

        The shift applies elementwise; telemetry's spatial accumulators and
        the compiler's affinity builders bin whole address streams through
        this without a per-address Python call.
        """
        return (addrs >> self._shift) % self.num_targets


@dataclass(frozen=True)
class DataDistribution:
    """The full (memory-bank, cache-bank) distribution of a machine.

    ``mc_of``  : which memory controller an LLC miss for ``addr`` is routed to.
    ``bank_of``: which shared-LLC bank ``addr`` is homed in (S-NUCA).
    """

    num_mcs: int
    num_llc_banks: int
    layout: AddressLayout
    mc_granularity: Granularity = Granularity.PAGE
    bank_granularity: Granularity = Granularity.CACHE_LINE

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_mc_dist",
            RoundRobinDistribution(self.num_mcs, self.mc_granularity, self.layout),
        )
        object.__setattr__(
            self,
            "_bank_dist",
            RoundRobinDistribution(
                self.num_llc_banks, self.bank_granularity, self.layout
            ),
        )

    def mc_of(self, addr: int) -> int:
        return self._mc_dist.target(addr)

    def bank_of(self, addr: int) -> int:
        return self._bank_dist.target(addr)

    def mc_of_batch(self, addrs):
        """Vectorized :meth:`mc_of` over a numpy address array."""
        return self._mc_dist.target_batch(addrs)

    def bank_of_batch(self, addrs):
        """Vectorized :meth:`bank_of` over a numpy address array."""
        return self._bank_dist.target_batch(addrs)

    def describe(self) -> str:
        return (
            f"(mem={self.mc_granularity.value}, "
            f"cache={self.bank_granularity.value})"
        )


def default_distribution(
    num_mcs: int, num_llc_banks: int, layout: AddressLayout
) -> DataDistribution:
    """The paper's default: page-RR over MCs, line-RR over LLC banks."""
    return DataDistribution(
        num_mcs=num_mcs,
        num_llc_banks=num_llc_banks,
        layout=layout,
        mc_granularity=Granularity.PAGE,
        bank_granularity=Granularity.CACHE_LINE,
    )
