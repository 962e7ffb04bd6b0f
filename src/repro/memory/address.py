"""Physical address layout and bit-field helpers.

Section 2 of the paper describes how location is encoded in a physical
address: the low bits are the offset within a cache line, the next group of
bits select the LLC bank (when the LLC is shared), and -- for page-granular
memory interleaving -- the bits just above the page offset select the memory
controller.  This module centralizes those bit manipulations so the cache,
memory and compiler layers all agree on where data lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Exact integer log2; raises for non powers of two."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressLayout:
    """Bit-level layout of a physical address.

    Defaults follow Table 4: 64-byte LLC lines, 2 KB pages ("page size" in
    the paper doubles as the DRAM row size and OS page size).
    """

    line_bytes: int = 64
    page_bytes: int = 2048

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_bytes):
            raise ValueError("line size must be a power of two")
        if not is_power_of_two(self.page_bytes):
            raise ValueError("page size must be a power of two")
        if self.page_bytes < self.line_bytes:
            raise ValueError("a page must hold at least one cache line")

    # -- derived widths -------------------------------------------------
    # Cached, not recomputed: every L1 miss reads them.  Not fields, so
    # config hashes (repro.obs.manifest) still see only the two sizes.
    @cached_property
    def line_offset_bits(self) -> int:
        return log2_int(self.line_bytes)

    @cached_property
    def page_offset_bits(self) -> int:
        return log2_int(self.page_bytes)

    @property
    def lines_per_page(self) -> int:
        return self.page_bytes // self.line_bytes

    # -- field extraction ------------------------------------------------
    def line_number(self, addr: int) -> int:
        """Global cache-line index of ``addr``."""
        return addr >> self.line_offset_bits

    def line_base(self, addr: int) -> int:
        return addr & ~(self.line_bytes - 1)

    def line_offset(self, addr: int) -> int:
        return addr & (self.line_bytes - 1)

    def page_number(self, addr: int) -> int:
        return addr >> self.page_offset_bits

    def page_base(self, addr: int) -> int:
        return addr & ~(self.page_bytes - 1)

    def page_offset(self, addr: int) -> int:
        return addr & (self.page_bytes - 1)

    def compose(self, page_number: int, page_offset: int) -> int:
        if not 0 <= page_offset < self.page_bytes:
            raise ValueError("page offset out of range")
        return (page_number << self.page_offset_bits) | page_offset


DEFAULT_LAYOUT = AddressLayout()
