"""On-chip network: mesh topology, X-Y routing, wormhole + analytic models."""

from .analytic import AnalyticNetwork
from .network import BaseNetwork, NetworkStats, WormholeNetwork
from .packet import CONTROL_FLITS, FLIT_BYTES, flits_for_payload
from .routing import hop_count, path_coords, xy_links, xy_path
from .topology import (
    Coord,
    MCPlacement,
    MemoryControllerInfo,
    Mesh2D,
    default_mesh,
)

__all__ = [
    "AnalyticNetwork",
    "BaseNetwork",
    "NetworkStats",
    "WormholeNetwork",
    "CONTROL_FLITS",
    "FLIT_BYTES",
    "flits_for_payload",
    "hop_count",
    "path_coords",
    "xy_links",
    "xy_path",
    "Coord",
    "MCPlacement",
    "MemoryControllerInfo",
    "Mesh2D",
    "default_mesh",
]
