"""Cache hierarchy: set-assoc caches, S-NUCA homing, MOESI-lite directory."""

from .cache import HIT, MISS, Cache, CacheStats
from .coherence import CoherenceStats, Directory, DirState
from .hierarchy import DEFAULT_L1, DEFAULT_L2, CacheConfig, CacheHierarchy
from .snuca import LLCOrganization, SnucaMapper

__all__ = [
    "HIT",
    "MISS",
    "Cache",
    "CacheStats",
    "CoherenceStats",
    "Directory",
    "DirState",
    "DEFAULT_L1",
    "DEFAULT_L2",
    "CacheConfig",
    "CacheHierarchy",
    "LLCOrganization",
    "SnucaMapper",
]
