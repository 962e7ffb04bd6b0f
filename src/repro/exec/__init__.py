"""``repro.exec`` -- the sharded parallel sweep executor.

Partitions a sweep into independent, content-addressed cells
(:func:`sweep_matrix` / :class:`SweepCell`), fans them out over a
``ProcessPoolExecutor`` (:func:`run_sweep`), memoizes completed cells in
an on-disk cache keyed by the run-manifest ``config_hash`` recipe
(:class:`ResultCache`), and survives worker crashes via bounded retry
with exponential backoff, degrading to in-process execution when a cell
exhausts its retries.

The headline guarantee -- enforced by ``tests/exec`` -- is equivalence:
``workers=1``, ``workers=N``, shuffled shard orders, crash-recovered and
cache-replayed sweeps all produce field-identical ``RunStats`` payloads.
See ``docs/parallel_execution.md``.
"""

from .cache import ResultCache
from .cells import (
    CACHE_SCHEMA_VERSION,
    SweepCell,
    resolve_workload,
    sweep_matrix,
)
from .executor import (
    CellResult,
    SweepError,
    SweepResult,
    execute_cell,
    execute_cell_enveloped,
    run_sweep,
    sweep_table,
    sweep_tracer,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellResult",
    "ResultCache",
    "SweepCell",
    "SweepError",
    "SweepResult",
    "execute_cell",
    "execute_cell_enveloped",
    "resolve_workload",
    "run_sweep",
    "sweep_matrix",
    "sweep_table",
    "sweep_tracer",
]
