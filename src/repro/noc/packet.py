"""Packets and flits.

On-chip messages are broken into flits (flow-control digits).  A request
carrying no payload (e.g. a read request) is a single head flit plus an
address flit; a response carrying a cache line adds ``line_size / flit_size``
payload flits.  The exact values matter less than their ratios: data
responses are several times longer than requests, so reply traffic dominates
link occupancy -- the effect the paper's mapping is designed to localize.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

FLIT_BYTES = 16
"""Bytes carried per flit (typical 128-bit links)."""

CONTROL_FLITS = 1
"""Flits in a payload-free control message (request, ack, invalidate)."""


class MessageKind(enum.Enum):
    """What a packet is doing on the network."""

    REQUEST = "request"          # L1 miss -> LLC bank, or LLC miss -> MC
    DATA_RESPONSE = "data"       # cache line coming back
    CONTROL = "control"          # coherence control (acks, invalidations)


def flits_for_payload(payload_bytes: int) -> int:
    """Number of flits for a message carrying ``payload_bytes`` of data.

    A head flit is always present; payload is packed into whole flits.
    """
    if payload_bytes < 0:
        raise ValueError("payload size must be non-negative")
    if payload_bytes == 0:
        return CONTROL_FLITS
    payload_flits = -(-payload_bytes // FLIT_BYTES)  # ceil division
    return CONTROL_FLITS + payload_flits


@dataclass
class Packet:
    """A message injected into the on-chip network."""

    src: int
    dst: int
    kind: MessageKind
    num_flits: int
    inject_time: int

    def __post_init__(self) -> None:
        if self.num_flits < 1:
            raise ValueError("a packet has at least one flit")

    @classmethod
    def request(cls, src: int, dst: int, time: int) -> "Packet":
        return cls(src, dst, MessageKind.REQUEST, CONTROL_FLITS, time)

    @classmethod
    def data_response(
        cls, src: int, dst: int, time: int, line_bytes: int
    ) -> "Packet":
        return cls(
            src, dst, MessageKind.DATA_RESPONSE, flits_for_payload(line_bytes), time
        )
