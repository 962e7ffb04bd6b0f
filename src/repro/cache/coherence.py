"""MOESI-lite directory coherence.

The paper's gem5 configuration runs MOESI (Table 4).  For the traffic and
latency questions this reproduction asks, the load-bearing aspects of MOESI
are (1) which component answers a request -- another core's cache, the home
LLC bank, or memory -- and (2) the invalidation traffic writes generate.
``Directory`` tracks per-line owner/sharer sets at the home bank and tells
the machine model which messages to put on the network; actual data movement
and timing stay in :mod:`repro.sim.machine`.

States are tracked per line from the directory's point of view:

* ``INVALID``    -- no on-chip copy the directory knows about
* ``SHARED``     -- one or more clean copies
* ``OWNED``      -- one owner with a dirty copy, possibly plus sharers
* ``MODIFIED``/``EXCLUSIVE`` are collapsed into ``OWNED`` with an empty /
  singleton sharer set; the distinction changes write-hit bookkeeping, not
  message counts, at this fidelity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple


class DirState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    OWNED = "O"


@dataclass
class CoherenceStats:
    read_requests: int = 0
    write_requests: int = 0
    invalidations_sent: int = 0
    owner_forwards: int = 0
    downgrade_writebacks: int = 0


class Directory:
    """Home-bank directory over line addresses.

    Each known line keeps ``[owner, sharers]``: the node holding the dirty
    copy (-1 for none) and a bitmask of nodes with a copy.  The owner is
    always among the sharers, and the state follows from the pair: OWNED
    with an owner, else SHARED with any sharer, else INVALID.  Node 0 is a
    real node, so "no owner" is tested with ``>= 0``, never truthiness.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, List[int]] = {}
        self.stats = CoherenceStats()

    # ------------------------------------------------------------------
    def read(self, line_addr: int, requester: int) -> int:
        """A core issues a read that reached the home bank.

        Returns the node whose dirty copy must forward the data, or -1.
        """
        self.stats.read_requests += 1
        entry = self._entries.get(line_addr)
        if entry is None:
            self._entries[line_addr] = [-1, 1 << requester]
            return -1
        entry[1] |= 1 << requester
        owner = entry[0]
        if owner >= 0 and owner != requester:
            # Dirty copy elsewhere: the owner forwards and keeps a now-
            # shared copy (O -> O with an extra sharer).
            self.stats.owner_forwards += 1
            return owner
        return -1

    def write(self, line_addr: int, requester: int) -> Tuple[int, Tuple[int, ...]]:
        """A core issues a write (or upgrade) that reached the home bank.

        Returns ``(forward, invalidate)``: the previous owner that forwards
        the data (or -1) and the sorted other nodes whose copies must be
        invalidated.  The requester becomes the sole owner.
        """
        stats = self.stats
        stats.write_requests += 1
        bit = 1 << requester
        entry = self._entries.get(line_addr)
        if entry is None:
            self._entries[line_addr] = [requester, bit]
            return -1, ()
        owner, others = entry
        entry[0] = requester
        entry[1] = bit
        forward = -1
        if owner >= 0 and owner != requester:
            forward = owner
            stats.owner_forwards += 1
        others &= ~bit
        if not others:
            return forward, ()
        invalidate = []
        while others:
            low = others & -others
            invalidate.append(low.bit_length() - 1)
            others ^= low
        stats.invalidations_sent += len(invalidate)
        return forward, tuple(invalidate)

    def evict(self, line_addr: int, node: int) -> None:
        """An L1 silently drops (clean) or writes back (dirty) a line."""
        entry = self._entries.get(line_addr)
        if entry is None:
            return
        entry[1] &= ~(1 << node)
        if entry[0] == node:
            entry[0] = -1
            self.stats.downgrade_writebacks += 1

    # ------------------------------------------------------------------
    def state_of(self, line_addr: int) -> DirState:
        owner, sharers = self._entries.get(line_addr, (-1, 0))
        if owner >= 0:
            return DirState.OWNED
        return DirState.SHARED if sharers else DirState.INVALID

    def sharers_of(self, line_addr: int) -> Set[int]:
        sharers = self._entries.get(line_addr, (-1, 0))[1]
        return {node for node in range(sharers.bit_length()) if sharers >> node & 1}
