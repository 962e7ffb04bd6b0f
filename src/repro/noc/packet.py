"""Message sizes in flits.

On-chip messages are broken into flits (flow-control digits).  A message
carrying no payload (a request, an invalidation) is a single head flit; a
response carrying a cache line adds ``line_size / flit_size`` payload
flits.  The exact values matter less than their ratios: data responses are
several times longer than requests, so reply traffic dominates link
occupancy -- the effect the paper's mapping is designed to localize.

A message itself is never an object: the machine hands
:meth:`repro.noc.network.BaseNetwork.transfer` its source, destination,
inject time and flit count as plain ints.
"""

from __future__ import annotations

FLIT_BYTES = 16
"""Bytes carried per flit (typical 128-bit links)."""

CONTROL_FLITS = 1
"""Flits in a payload-free control message (request, ack, invalidate)."""


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
