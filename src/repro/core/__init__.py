"""The paper's contribution: affinity analysis + location-aware mapping."""

from .affinity import (
    AffinityVector,
    affinity_from_counts,
    affinity_from_targets,
    best_region,
    combined_eta,
    eta,
    is_normalized,
)
from .alpha import MAX_ALPHA, clamp_alpha, determine_alpha
from .analysis import (
    ArchitectureView,
    average_mai_error,
    build_cai,
    build_mai,
    build_set_affinity,
    mai_error,
)
from .balance import BalanceResult, balance_regions, is_balanced, region_loads
from .inspector import (
    INSPECT_LABEL,
    InspectorCost,
    observed_affinity,
)
from .mapping import (
    Mapper,
    PlacementStrategy,
    Schedule,
    SetAffinity,
)
from .pipeline import CompiledSchedule, LocationAwareCompiler
from .proximity import (
    MacMode,
    cac_table,
    cac_vector,
    llc_mac_table,
    mac_table,
    mac_vector,
)
from .regions import RegionPartition, default_partition, partition_by_count

__all__ = [
    "AffinityVector",
    "affinity_from_counts",
    "affinity_from_targets",
    "best_region",
    "combined_eta",
    "eta",
    "is_normalized",
    "MAX_ALPHA",
    "clamp_alpha",
    "determine_alpha",
    "ArchitectureView",
    "average_mai_error",
    "build_cai",
    "build_mai",
    "build_set_affinity",
    "mai_error",
    "BalanceResult",
    "balance_regions",
    "is_balanced",
    "region_loads",
    "INSPECT_LABEL",
    "InspectorCost",
    "observed_affinity",
    "Mapper",
    "PlacementStrategy",
    "Schedule",
    "SetAffinity",
    "CompiledSchedule",
    "LocationAwareCompiler",
    "MacMode",
    "cac_table",
    "cac_vector",
    "llc_mac_table",
    "mac_table",
    "mac_vector",
    "RegionPartition",
    "default_partition",
    "partition_by_count",
]
