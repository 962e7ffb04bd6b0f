"""KNL-like machine configurations.

``KnlConfig`` is a :class:`~repro.sim.config.SystemConfig` whose address
distribution follows a cluster mode.  The tile grid stays 6x6 (one modeled
core per tile, standing in for KNL's 36 tiles); the LLC is shared
(KNL's distributed L2-slice behaviour under the hash) and DRAM is the
faster DDR4 preset (a stand-in for MCDRAM/DDR bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.snuca import LLCOrganization
from repro.memory.distribution import DataDistribution
from repro.memory.dram import DDR4_2400
from repro.sim.config import SystemConfig

from .modes import ClusterMode, KnlDistribution


@dataclass(frozen=True)
class KnlConfig(SystemConfig):
    """A 36-tile KNL-like machine under one cluster mode."""

    cluster_mode: ClusterMode = ClusterMode.ALL_TO_ALL
    page_to_quadrant: Optional[Dict[int, int]] = None

    def build_distribution(self) -> DataDistribution:
        return KnlDistribution(
            num_mcs=self.num_mcs,
            num_llc_banks=self.num_cores,
            layout=self.layout(),
            mc_granularity=self.mc_granularity,
            bank_granularity=self.bank_granularity,
            mode=self.cluster_mode,
            mesh_width=self.mesh_width,
            mesh_height=self.mesh_height,
            page_to_quadrant=self.page_to_quadrant,
        )


def knl_config(
    mode: ClusterMode,
    page_to_quadrant: Optional[Dict[int, int]] = None,
) -> KnlConfig:
    """Standard KNL-like setup for the Figure 16/17 experiments."""
    return KnlConfig(
        llc_organization=LLCOrganization.SHARED,
        dram=DDR4_2400,
        l2_size_bytes=64 * 1024,  # KNL: 1 MB L2/tile, scaled 16x down
        cluster_mode=mode,
        page_to_quadrant=page_to_quadrant,
    )
