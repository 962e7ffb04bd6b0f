"""System configuration (Table 4) and machine construction.

``SystemConfig`` holds every knob the evaluation varies: mesh size
(6x6 default, 8x8 in Figure 9), LLC capacity (512 KB/core default, 1 MB in
Figure 9), page size (2 KB default, 8 KB in Figure 9), MC placement
(corners default, edge middles in Figure 9), DRAM generation (DDR3 default,
DDR4 in Figure 12), data distribution granularities (Figure 11), region
size (Figure 10a/b) and iteration-set size (Figure 10c/d).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.cache.hierarchy import CacheConfig
from repro.cache.snuca import LLCOrganization
from repro.memory.address import AddressLayout
from repro.memory.distribution import (
    DataDistribution,
    Granularity,
)
from repro.memory.dram import DDR3_1333, DDR4_2400, DramTimings
from repro.noc.topology import MCPlacement, Mesh2D


class NetworkModel(enum.Enum):
    WORMHOLE = "wormhole"    # link-reservation model (reference)
    ANALYTIC = "analytic"    # windowed-utilization model (fast sweeps)
    IDEAL = "ideal"          # zero-latency network (Figure 2 upper bound)


@dataclass(frozen=True)
class SystemConfig:
    """One manycore configuration; defaults reproduce Table 4."""

    # Mesh / regions
    mesh_width: int = 6
    mesh_height: int = 6
    region_w: int = 2
    region_h: int = 2
    mc_placement: MCPlacement = MCPlacement.CORNERS

    # Caches.  Capacities are the paper's Table 4 values scaled down ~64x
    # (L1 16 KB -> 2 KB, L2 512 KB/core -> 8 KB/core): our workload
    # footprints are orders of magnitude smaller than the paper's
    # 451 MB-1.4 GB inputs, and what the paper's behaviour depends on is the
    # footprint/LLC *ratio* (steady-state LLC miss rates of 13-37%), not the
    # absolute capacity.  What a core itself touches must overflow its
    # private bank, and the aggregate footprint must overflow the shared
    # LLC, for the paper's off-chip traffic to exist at all.  Geometry
    # (associativity, line sizes, bank count) is unscaled.
    l1_size_bytes: int = 2 * 1024
    l1_assoc: int = 8
    l1_line_bytes: int = 32
    l2_size_bytes: int = 16 * 1024
    l2_assoc: int = 16
    l2_line_bytes: int = 64
    llc_organization: LLCOrganization = LLCOrganization.SHARED

    # Latencies (cycles @ 1 GHz)
    l1_latency: int = 2
    llc_latency: int = 8
    router_delay: int = 3

    # Memory
    page_bytes: int = 2048
    dram: DramTimings = DDR3_1333
    mc_buffer_entries: int = 250
    # Data distribution.  MCs: page-granularity round robin (Table 4).
    # LLC banks: the paper's Table 4 lists cache-line granularity; we default
    # to page granularity because the worked examples of Figure 6 (arrays
    # homed in regions) presuppose page/region-level bank homing -- with pure
    # line interleaving a streaming set's hits are spread over every bank and
    # *no* computation placement can shorten them.  Figure 11's benchmark
    # sweeps all four (cache-bank, memory-bank) combinations, line
    # interleaving included, so the stated default is still evaluated.
    mc_granularity: Granularity = Granularity.PAGE
    bank_granularity: Granularity = Granularity.PAGE

    # Network
    network_model: NetworkModel = NetworkModel.ANALYTIC

    # Scheduling
    iteration_set_fraction: float = 0.0025

    # Execution model: fraction of a memory stall hidden by MLP/OoO overlap.
    stall_overlap: float = 0.7

    # Engine implementation: "fast" consumes each chunk's L1-hit runs with a
    # bulk cursor over Python lists (behaviour-identical to the scalar
    # model, enforced by the differential suite in
    # tests/sim/test_engine_equivalence.py); "reference" forces the
    # original per-access scalar walk.
    engine_mode: str = "fast"

    def __post_init__(self) -> None:
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ValueError(
                f"mesh dimensions must be positive, got "
                f"{self.mesh_width}x{self.mesh_height}"
            )
        if self.region_w < 1 or self.region_h < 1:
            raise ValueError(
                f"region dimensions must be positive, got "
                f"{self.region_w}x{self.region_h}"
            )
        if self.region_w > self.mesh_width or self.region_h > self.mesh_height:
            raise ValueError(
                f"{self.region_w}x{self.region_h} regions do not fit on a "
                f"{self.mesh_width}x{self.mesh_height} mesh; shrink the "
                "region or grow the mesh"
            )
        if self.mesh_width % self.region_w or self.mesh_height % self.region_h:
            raise ValueError(
                f"mesh {self.mesh_width}x{self.mesh_height} is not divisible "
                f"by the {self.region_w}x{self.region_h} region size; ragged "
                "edge regions would skew the load balancer -- pick a region "
                "size that tiles the mesh (or build a RegionPartition "
                "directly to study ragged grids)"
            )
        for name, value in (
            ("l1_latency", self.l1_latency),
            ("llc_latency", self.llc_latency),
            ("router_delay", self.router_delay),
        ):
            if value < 1:
                raise ValueError(
                    f"{name} must be at least 1 cycle, got {value}"
                )
        for name, value in (
            ("l1_line_bytes", self.l1_line_bytes),
            ("l2_line_bytes", self.l2_line_bytes),
            ("page_bytes", self.page_bytes),
        ):
            if value < 1 or value & (value - 1):
                raise ValueError(
                    f"{name} must be a power of two, got {value} (the "
                    "address layout slices line/page bits)"
                )
        if self.page_bytes < self.l2_line_bytes:
            raise ValueError(
                f"page_bytes ({self.page_bytes}) must be at least one LLC "
                f"line ({self.l2_line_bytes}); a line cannot straddle pages"
            )
        for name, size, assoc, line in (
            ("l1", self.l1_size_bytes, self.l1_assoc, self.l1_line_bytes),
            ("l2", self.l2_size_bytes, self.l2_assoc, self.l2_line_bytes),
        ):
            if assoc < 1:
                raise ValueError(f"{name}_assoc must be positive, got {assoc}")
            if size < assoc * line:
                raise ValueError(
                    f"{name}_size_bytes ({size}) cannot hold a single "
                    f"{assoc}-way set of {line}-byte lines "
                    f"(needs >= {assoc * line})"
                )
        if self.mc_buffer_entries < 1:
            raise ValueError(
                f"mc_buffer_entries must be at least 1, got "
                f"{self.mc_buffer_entries}"
            )
        if not 0.0 <= self.stall_overlap < 1.0:
            raise ValueError("stall_overlap must be in [0, 1)")
        if not 0.0 < self.iteration_set_fraction <= 1.0:
            raise ValueError("iteration_set_fraction must be in (0, 1]")
        if self.engine_mode not in ("fast", "reference"):
            raise ValueError("engine_mode must be 'fast' or 'reference'")

    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def num_mcs(self) -> int:
        return 4

    def layout(self) -> AddressLayout:
        return AddressLayout(
            line_bytes=self.l2_line_bytes, page_bytes=self.page_bytes
        )

    def build_mesh(self) -> Mesh2D:
        return Mesh2D(
            width=self.mesh_width,
            height=self.mesh_height,
            mc_placement=self.mc_placement,
        )

    def build_distribution(self) -> DataDistribution:
        return DataDistribution(
            num_mcs=self.num_mcs,
            num_llc_banks=self.num_cores,
            layout=self.layout(),
            mc_granularity=self.mc_granularity,
            bank_granularity=self.bank_granularity,
        )

    def l1_config(self) -> CacheConfig:
        return CacheConfig(self.l1_size_bytes, self.l1_assoc, self.l1_line_bytes)

    def l2_config(self) -> CacheConfig:
        return CacheConfig(self.l2_size_bytes, self.l2_assoc, self.l2_line_bytes)

    # ------------------------------------------------------------------
    def with_updates(self, **changes) -> "SystemConfig":
        """A copy with some fields replaced (sensitivity studies)."""
        return dataclasses.replace(self, **changes)

    def private_llc(self) -> "SystemConfig":
        return self.with_updates(llc_organization=LLCOrganization.PRIVATE)

    def shared_llc(self) -> "SystemConfig":
        return self.with_updates(llc_organization=LLCOrganization.SHARED)

    def ideal_network(self) -> "SystemConfig":
        return self.with_updates(network_model=NetworkModel.IDEAL)

    def with_ddr4(self) -> "SystemConfig":
        return self.with_updates(dram=DDR4_2400)

    def reference_engine(self) -> "SystemConfig":
        """Copy forcing the scalar per-access execution engine."""
        return self.with_updates(engine_mode="reference")

    def fast_engine(self) -> "SystemConfig":
        """Copy selecting the batched fast-path execution engine."""
        return self.with_updates(engine_mode="fast")


DEFAULT_CONFIG = SystemConfig()
"""Table 4 with a shared LLC (the paper's S-NUCA configuration)."""


def sensitivity_variants(base: SystemConfig) -> dict:
    """The Figure 9 variants, keyed by the paper's labels."""
    return {
        "Default Parameters": base,
        "8x8 Network": base.with_updates(mesh_width=8, mesh_height=8),
        # The paper doubles the LLC (512 KB -> 1 MB); scaled: 32 -> 64 KB.
        "1MB/core LLC": base.with_updates(l2_size_bytes=base.l2_size_bytes * 2),
        "Page Size = 8KB": base.with_updates(page_bytes=8192),
        "Different MC Placement": base.with_updates(
            mc_placement=MCPlacement.EDGE_MIDDLES
        ),
    }
