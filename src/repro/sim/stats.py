"""Run statistics and the comparison arithmetic used in the evaluation.

The paper reports two headline quantities per run pair:

* **on-chip network latency reduction** -- we use the average packet latency
  (hop + contention) over all packets a run injects, and
* **execution time reduction** -- last core's finish time.

Both are percentages of the baseline run ("% Reduction" in Figures 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import math
import warnings


@dataclass
class RunStats:
    """Everything measured in one simulated run."""

    execution_cycles: int = 0
    network_packets: int = 0
    network_total_latency: int = 0
    network_total_hops: int = 0
    network_flit_hops: int = 0
    l1_accesses: int = 0
    l1_hits: int = 0
    llc_accesses: int = 0
    llc_hits: int = 0
    dram_accesses: int = 0
    dram_row_hits: int = 0
    memory_stall_cycles: int = 0
    overhead_cycles: int = 0
    iterations_executed: int = 0

    # The run manifest (repro.obs.build_manifest) is attached as a plain
    # instance attribute, NOT a dataclass field: manifests carry wall times
    # and host identity, which must stay out of dataclasses.asdict() so
    # field-identical comparisons (equivalence suite, golden snapshots)
    # keep meaning "same simulated behaviour".
    manifest = None

    @property
    def avg_network_latency(self) -> float:
        if self.network_packets == 0:
            return 0.0
        return self.network_total_latency / self.network_packets

    @property
    def avg_hops(self) -> float:
        if self.network_packets == 0:
            return 0.0
        return self.network_total_hops / self.network_packets

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def llc_hit_rate(self) -> float:
        return self.llc_hits / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def llc_miss_rate(self) -> float:
        return 1.0 - self.llc_hit_rate if self.llc_accesses else 0.0

    @property
    def memory_stall_fraction(self) -> float:
        if self.execution_cycles == 0:
            return 0.0
        return self.memory_stall_cycles / self.execution_cycles

    @property
    def overhead_fraction(self) -> float:
        if self.execution_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.execution_cycles


def percent_reduction(baseline: float, optimized: float) -> float:
    """``100 * (baseline - optimized) / baseline`` (0 for a zero baseline)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - optimized) / baseline


@dataclass
class Comparison:
    """Baseline-vs-optimized deltas for one application."""

    name: str
    baseline: RunStats
    optimized: RunStats

    @property
    def network_latency_reduction(self) -> float:
        return percent_reduction(
            self.baseline.avg_network_latency, self.optimized.avg_network_latency
        )

    @property
    def execution_time_reduction(self) -> float:
        return percent_reduction(
            self.baseline.execution_cycles, self.optimized.execution_cycles
        )

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.optimized.overhead_fraction


def geomean(values: List[float]) -> float:
    """Geometric mean of percentage improvements, as the paper plots.

    All-positive inputs (every result the paper reports) use the plain
    geometric mean.  A non-positive entry -- a regression -- makes that
    undefined, and silently flooring it would report a -12% regression as
    ~0% improvement; instead the aggregate moves to ratio space, the
    sign-aware multiplicative mean ``100 * (prod(1 + v/100))**(1/n) - 100``,
    which keeps the sign of the net effect (a lone ``[-12.0]`` aggregates
    to exactly -12.0).  A value at or below -100% (a more-than-doubled
    metric) has no ratio-space image, so the result is NaN; both fallbacks
    emit a ``RuntimeWarning`` so regressions cannot pass unnoticed.
    """
    if not values:
        return 0.0
    if min(values) > 0.0:
        logs = [math.log(v) for v in values]
        return math.exp(sum(logs) / len(logs))
    if min(values) <= -100.0:
        warnings.warn(
            "geomean: value <= -100% has no multiplicative aggregate; "
            "returning NaN",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("nan")
    warnings.warn(
        "geomean over non-positive reductions: aggregating sign-aware in "
        "ratio space instead of flooring regressions to ~0",
        RuntimeWarning,
        stacklevel=2,
    )
    logs = [math.log1p(v / 100.0) for v in values]
    return 100.0 * math.expm1(sum(logs) / len(logs))


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
