"""Manycore simulator: configuration, machine, trace generation, engine."""

from .config import DEFAULT_CONFIG, NetworkModel, SystemConfig, sensitivity_variants
from .engine import ExecutionEngine, ObservedSet, TripPlan
from .machine import Manycore
from .stats import Comparison, RunStats, geomean, mean, percent_reduction
from .trace import ProgramTrace, SetTrace, binding_arrays, reference_addresses

__all__ = [
    "DEFAULT_CONFIG",
    "NetworkModel",
    "SystemConfig",
    "sensitivity_variants",
    "ExecutionEngine",
    "ObservedSet",
    "TripPlan",
    "Manycore",
    "Comparison",
    "RunStats",
    "geomean",
    "mean",
    "percent_reduction",
    "ProgramTrace",
    "SetTrace",
    "binding_arrays",
    "reference_addresses",
]
