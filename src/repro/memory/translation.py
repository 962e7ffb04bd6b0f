"""Virtual-to-physical translation with location-bit preservation.

Section 4 of the paper: the compiler reasons about *virtual* addresses but
the LLC bank and MC of an access are functions of the *physical* address.
Their fix is "an OS call during data allocation which ensures that the
locations in the virtual address that correspond to the MC and LLC bits are
not modified during the virtual address-to-physical address translation";
the compiler can then read the target LLC/MC directly off the virtual
address.

``PageTable`` models exactly that contract: with
``preserve_location_bits=True`` (the paper's OS call) every allocated
physical page number is congruent to its virtual page number modulo
``2**preserved_bits``, so any location field living in those low page-number
bits (the MC-select bits for page-granularity interleaving, and the
page-number part of the bank-select bits) survives translation.  With the
flag off, pages are assigned from a scrambled free list -- the situation a
plain OS would give you, used in tests to show the compiler's prediction
*would* break without the OS support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .address import AddressLayout


class OutOfPhysicalMemory(RuntimeError):
    """No free physical page satisfies the allocation constraint."""


@dataclass
class PageTable:
    """Per-process page table over a finite physical memory."""

    layout: AddressLayout
    phys_pages: int
    preserve_location_bits: bool = True
    preserved_bits: int = 4
    seed: int = 1234
    _vpn_to_ppn: Dict[int, int] = field(default_factory=dict, init=False)
    _used_ppns: set = field(default_factory=set, init=False)
    _page_faults: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.phys_pages < 1:
            raise ValueError("physical memory must hold at least one page")
        if self.preserved_bits < 0:
            raise ValueError("preserved_bits must be non-negative")
        # Deterministic scramble of the free list so the non-preserving mode
        # actually permutes location bits (as a real buddy allocator would).
        self._scramble = self.seed | 1

    # ------------------------------------------------------------------
    @property
    def page_faults(self) -> int:
        """Pages allocated so far (each first touch is one fault)."""
        return self._page_faults

    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Translate ``vaddr``, allocating the backing page on first touch."""
        vpn = self.layout.page_number(vaddr)
        ppn = self._vpn_to_ppn.get(vpn)
        if ppn is None:
            ppn = self._allocate(vpn)
        return self.layout.compose(ppn, self.layout.page_offset(vaddr))

    def translate_batch(self, vaddrs: np.ndarray) -> np.ndarray:
        """Translate a stream of virtual addresses at once.

        Equivalent to calling :meth:`translate` element by element in
        stream order: unseen pages fault in first-touch order, so the
        VPN->PPN assignment (which depends on allocation order in both the
        preserving and the scrambled mode) is identical to the scalar
        walk.  The per-element mapping itself is vectorized.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        bits = self.layout.page_offset_bits
        vpns = vaddrs >> bits
        uniq, first = np.unique(vpns, return_index=True)
        missing = [
            (int(first_at), int(vpn))
            for vpn, first_at in zip(uniq.tolist(), first.tolist())
            if vpn not in self._vpn_to_ppn
        ]
        for _, vpn in sorted(missing):
            self._allocate(vpn)
        ppn_of_uniq = np.array(
            [self._vpn_to_ppn[int(vpn)] for vpn in uniq], dtype=np.int64
        )
        ppns = ppn_of_uniq[np.searchsorted(uniq, vpns)]
        return (ppns << bits) | (vaddrs & (self.layout.page_bytes - 1))

    def translation_preserves(self, vaddr: int, bits: int) -> bool:
        """True if the low ``bits`` of the page number survive translation."""
        vpn = self.layout.page_number(vaddr)
        pa = self.translate(vaddr)
        ppn = self.layout.page_number(pa)
        mask = (1 << bits) - 1
        return (vpn & mask) == (ppn & mask)

    # ------------------------------------------------------------------
    def _allocate(self, vpn: int) -> int:
        self._page_faults += 1
        if self.preserve_location_bits:
            ppn = self._allocate_preserving(vpn)
        else:
            ppn = self._allocate_scrambled(vpn)
        self._vpn_to_ppn[vpn] = ppn
        self._used_ppns.add(ppn)
        return ppn

    def _allocate_preserving(self, vpn: int) -> int:
        """First free page whose low bits match the virtual page's."""
        mask = (1 << self.preserved_bits) - 1
        color = vpn & mask
        stride = 1 << self.preserved_bits
        for candidate in range(color, self.phys_pages, stride):
            if candidate not in self._used_ppns:
                return candidate
        raise OutOfPhysicalMemory(
            f"no free page with color {color:#x} (preserved_bits="
            f"{self.preserved_bits}, phys_pages={self.phys_pages})"
        )

    def _allocate_scrambled(self, vpn: int) -> int:
        """Pseudo-random free page, like a real allocator's free list."""
        start = (vpn * self._scramble) % self.phys_pages
        for i in range(self.phys_pages):
            candidate = (start + i * 7919) % self.phys_pages
            if candidate not in self._used_ppns:
                return candidate
        raise OutOfPhysicalMemory("physical memory exhausted")


def identity_translation(layout: AddressLayout) -> "IdentityTranslation":
    return IdentityTranslation(layout)


@dataclass(frozen=True)
class IdentityTranslation:
    """VA == PA.  Useful for unit tests and compile-time reasoning.

    When the OS preserves all location bits, the compiler-visible mapping of
    an address to its MC/bank equals the identity-translated one, so the
    compiler layers use this object rather than a full page table.
    """

    layout: AddressLayout

    def translate(self, vaddr: int) -> int:
        return vaddr

    def translate_batch(self, vaddrs: np.ndarray) -> np.ndarray:
        return np.asarray(vaddrs, dtype=np.int64)

    @property
    def page_faults(self) -> int:
        return 0
