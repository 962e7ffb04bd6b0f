"""2D mesh topology with physical locations of cores, LLC banks and MCs.

The paper targets mesh-based manycores (6x6 by default, Table 4) where every
node holds a core, private L1 caches, an L2 (LLC) bank and a router.  Memory
controllers sit at fixed positions on the mesh edge.  Everything the mapping
algorithm needs from the architecture -- "the relative positions of (and
distances between) cores, last-level caches and memory controllers" -- is
exposed by this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

Coord = Tuple[int, int]


class MCPlacement(enum.Enum):
    """Where the memory controllers attach to the mesh.

    ``CORNERS`` is the paper's default (Figure 3: MC1..MC4 at the four
    corners).  ``EDGE_MIDDLES`` is the alternate placement evaluated in the
    sensitivity study (Figure 9: "we placed the four memory controllers in
    the middle of each side of the 2D space").
    """

    CORNERS = "corners"
    EDGE_MIDDLES = "edge_middles"


def _corner_positions(width: int, height: int) -> List[Coord]:
    # Figure 3 numbers MCs counter-clockwise starting at the north-east
    # corner: MC1 NE, MC2 NW, MC3 SE, MC4 SW is *not* what the figure shows;
    # the figure places MC1 top-right, MC2 bottom-right, MC3 bottom-left,
    # MC4 top-left in one rendering and the MAC examples (Figure 6a) imply:
    # R1 (top-left region) has affinity 1.0 to MC1, R3 (top-right) to MC2,
    # R9 (bottom-right) to MC3, R7 (bottom-left) to MC4.  We therefore fix:
    # MC1 = top-left, MC2 = top-right, MC3 = bottom-right, MC4 = bottom-left.
    return [
        (0, 0),
        (width - 1, 0),
        (width - 1, height - 1),
        (0, height - 1),
    ]


def _edge_middle_positions(width: int, height: int) -> List[Coord]:
    return [
        (width // 2, 0),
        (width - 1, height // 2),
        (width // 2, height - 1),
        (0, height // 2),
    ]


@dataclass(frozen=True)
class MemoryControllerInfo:
    """A memory controller attached to the mesh at ``position``."""

    index: int
    position: Coord


@dataclass
class Mesh2D:
    """A ``width`` x ``height`` mesh of nodes.

    Node ids are assigned row-major: node ``(x, y)`` has id ``y*width + x``.
    Each node contains a core, an L1, an LLC bank and a router; the id spaces
    for cores, LLC banks and routers therefore coincide.
    """

    width: int
    height: int
    mc_placement: MCPlacement = MCPlacement.CORNERS
    num_mcs: int = 4
    _mcs: List[MemoryControllerInfo] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.num_mcs != 4:
            raise ValueError(
                "only 4-MC configurations are modeled (paper uses 4 MCs)"
            )
        if self.mc_placement is MCPlacement.CORNERS:
            positions = _corner_positions(self.width, self.height)
        else:
            positions = _edge_middle_positions(self.width, self.height)
        self._mcs = [
            MemoryControllerInfo(index=i, position=pos)
            for i, pos in enumerate(positions)
        ]

    # ------------------------------------------------------------------
    # Node id / coordinate conversions
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def node_id(self, coord: Coord) -> int:
        x, y = coord
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def coord(self, node: int) -> Coord:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node id {node} outside mesh of {self.num_nodes} nodes")
        return (node % self.width, node // self.width)

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def manhattan(self, a: Coord, b: Coord) -> int:
        """Manhattan distance between two coordinates (the paper's metric)."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def node_distance(self, a: int, b: int) -> int:
        return self.manhattan(self.coord(a), self.coord(b))

    def distance_to_mc(self, node: int, mc: int) -> int:
        return self.manhattan(self.coord(node), self.mc(mc).position)

    # ------------------------------------------------------------------
    # Memory controllers
    # ------------------------------------------------------------------
    @property
    def mcs(self) -> Sequence[MemoryControllerInfo]:
        return tuple(self._mcs)

    def mc(self, index: int) -> MemoryControllerInfo:
        return self._mcs[index]

    def mc_node(self, index: int) -> int:
        """Mesh node whose router the MC is attached to."""
        return self.node_id(self._mcs[index].position)

    def nearest_mc(self, node: int) -> int:
        """Index of the MC closest (Manhattan) to ``node``; ties -> lowest id."""
        c = self.coord(node)
        best = min(
            self._mcs, key=lambda m: (self.manhattan(c, m.position), m.index)
        )
        return best.index

    # ------------------------------------------------------------------
    # Neighbourhood
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> List[int]:
        """Mesh neighbours (N/E/S/W) of a node."""
        x, y = self.coord(node)
        out = []
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append(self.node_id((nx, ny)))
        return out

    def links(self) -> List[Tuple[int, int]]:
        """All directed links (u, v) with v a mesh neighbour of u."""
        out: List[Tuple[int, int]] = []
        for u in self.nodes():
            for v in self.neighbors(u):
                out.append((u, v))
        return out


def default_mesh() -> Mesh2D:
    """The paper's default 6x6 mesh with corner MCs (Table 4)."""
    return Mesh2D(width=6, height=6)
