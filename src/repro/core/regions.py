"""Logical partitioning of the 2D mesh into regions.

The paper divides the on-chip 2D space into rectangular regions (default: 9
regions of 2x2 cores on the 6x6 mesh, Table 4) and formulates all core-side
affinities at region granularity: coarse enough to keep affinity vectors
short, fine enough to stay location aware, with multiple candidate cores per
region available for load balancing (Section 3.3).  Figure 10 sweeps region
size from 4 regions (3x3 cores each) to 36 (one core each); this module
supports all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.noc.topology import Mesh2D


@dataclass
class RegionPartition:
    """A grid of ``region_w`` x ``region_h``-core regions over a mesh.

    Region ids are row-major over the region grid, matching the paper's
    R1..R9 numbering (R1 top-left, R3 top-right, R9 bottom-right) with ids
    starting at 0 (region 0 == the paper's R1).
    """

    mesh: Mesh2D
    region_w: int = 2
    region_h: int = 2

    def __post_init__(self) -> None:
        if self.region_w < 1 or self.region_h < 1:
            raise ValueError("region dimensions must be positive")
        if self.region_w > self.mesh.width or self.region_h > self.mesh.height:
            raise ValueError("region larger than the mesh")
        self.grid_w = -(-self.mesh.width // self.region_w)  # ceil
        self.grid_h = -(-self.mesh.height // self.region_h)
        self._members: Dict[int, List[int]] = {
            r: [] for r in range(self.grid_w * self.grid_h)
        }
        for node in self.mesh.nodes():
            self._members[self.region_of_node(node)].append(node)

    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return self.grid_w * self.grid_h

    def region_of_node(self, node: int) -> int:
        x, y = self.mesh.coord(node)
        gx = min(x // self.region_w, self.grid_w - 1)
        gy = min(y // self.region_h, self.grid_h - 1)
        return gy * self.grid_w + gx

    def grid_coord(self, region: int) -> Tuple[int, int]:
        if not 0 <= region < self.num_regions:
            raise ValueError(f"region {region} out of range")
        return (region % self.grid_w, region // self.grid_w)

    def nodes_in_region(self, region: int) -> List[int]:
        return list(self._members[region])

    def region_center(self, region: int) -> Tuple[float, float]:
        """Mean coordinate of the region's cores (mesh coordinates)."""
        nodes = self._members[region]
        xs = [self.mesh.coord(n)[0] for n in nodes]
        ys = [self.mesh.coord(n)[1] for n in nodes]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    # ------------------------------------------------------------------
    def region_neighbors(self, region: int) -> List[int]:
        """4-connected neighbours in the region grid (paper's "immediate")."""
        gx, gy = self.grid_coord(region)
        out = []
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nx, ny = gx + dx, gy + dy
            if 0 <= nx < self.grid_w and 0 <= ny < self.grid_h:
                out.append(ny * self.grid_w + nx)
        return out

    def region_distance(self, a: int, b: int) -> int:
        """Manhattan distance in the region grid (orders balance transfers)."""
        ax, ay = self.grid_coord(a)
        bx, by = self.grid_coord(b)
        return abs(ax - bx) + abs(ay - by)

    def regions(self) -> Sequence[int]:
        return range(self.num_regions)


def partition_by_count(mesh: Mesh2D, num_regions: int) -> RegionPartition:
    """Build the partition matching Figure 10's labels.

    The figure annotates each point "number of regions (region size)":
    4 (3x3), 6 (2x3), 9 (2x2), 18 (2x1), 36 (1x1) on the 6x6 mesh.
    """
    presets_6x6 = {
        4: (3, 3),
        6: (2, 3),
        9: (2, 2),
        18: (2, 1),
        36: (1, 1),
    }
    if (mesh.width, mesh.height) == (6, 6) and num_regions in presets_6x6:
        w, h = presets_6x6[num_regions]
        return RegionPartition(mesh, region_w=w, region_h=h)
    # General case: find the most square region grid with ~num_regions cells.
    best = None
    for grid_w in range(1, mesh.width + 1):
        if num_regions % grid_w != 0:
            continue
        grid_h = num_regions // grid_w
        if grid_h > mesh.height:
            continue
        if mesh.width % grid_w or mesh.height % grid_h:
            continue
        region_w = mesh.width // grid_w
        region_h = mesh.height // grid_h
        skew = abs(region_w - region_h)
        if best is None or skew < best[0]:
            best = (skew, region_w, region_h)
    if best is None:
        raise ValueError(
            f"cannot tile a {mesh.width}x{mesh.height} mesh into "
            f"{num_regions} rectangular regions"
        )
    return RegionPartition(mesh, region_w=best[1], region_h=best[2])


def default_partition(mesh: Mesh2D) -> RegionPartition:
    """The paper's default: 9 regions of 2x2 cores (Table 4)."""
    return RegionPartition(mesh, region_w=2, region_h=2)
