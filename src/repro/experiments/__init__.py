"""Experiment harness and per-figure reproductions."""

from .harness import (
    DEFAULT_CME_ACCURACY,
    DEFAULT_SEED,
    MAPPINGS,
    RunResult,
    compare,
    run_workload,
)

__all__ = [
    "DEFAULT_CME_ACCURACY",
    "DEFAULT_SEED",
    "MAPPINGS",
    "RunResult",
    "compare",
    "run_workload",
]
