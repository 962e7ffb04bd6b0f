"""Per-figure experiment definitions.

One function per table/figure of the paper's evaluation section.  Each
returns plain data (dicts keyed by application / variant) that the
benchmark targets print via :mod:`repro.experiments.report`; nothing here
depends on pytest so the experiments are equally usable from scripts.

All functions accept ``apps`` (subset of the suite; None = all 21) and
``scale`` (input-size multiplier; 1.0 = the designed sizes, where the
footprint/cache ratios match the paper's regime -- small scales are only
meaningful for smoke tests).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.regions import RegionPartition
from repro.sim.config import DEFAULT_CONFIG, SystemConfig, sensitivity_variants
from repro.sim.stats import geomean, mean, percent_reduction
from repro.workloads.suite import (
    KNL_SCALING_APPS,
    LAYOUT_COMPARISON_APPS,
    SUITE_ORDER,
    build_workload,
)

from .harness import DEFAULT_CME_ACCURACY, compare, run_workload


def _apps(apps: Optional[Sequence[str]]) -> List[str]:
    return list(apps) if apps is not None else list(SUITE_ORDER)


def _both_orgs(config: SystemConfig) -> Dict[str, SystemConfig]:
    return {"private": config.private_llc(), "shared": config.shared_llc()}


# ----------------------------------------------------------------------
# Figure 2 -- ideal (zero-latency) network potential
# ----------------------------------------------------------------------
def figure02_ideal_network(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, float]]:
    """Execution-time improvement of a zero-latency network, per app/org.

    Both runs use the *default* mapping; the delta is pure network cost --
    the paper's upper bound on what any network optimization can recover.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name in _apps(apps):
        workload = build_workload(name)
        row: Dict[str, float] = {}
        for org, cfg in _both_orgs(config).items():
            real = run_workload(workload, cfg, mapping="default", scale=scale)
            ideal = run_workload(
                workload, cfg.ideal_network(), mapping="default", scale=scale
            )
            row[org] = percent_reduction(
                real.stats.execution_cycles, ideal.stats.execution_cycles
            )
        out[name] = row
    return out


# ----------------------------------------------------------------------
# Figures 7 and 8 -- the headline results
# ----------------------------------------------------------------------
def _headline(
    config: SystemConfig,
    apps: Optional[Sequence[str]],
    scale: float,
    cme_accuracy: float,
    want_cai: bool,
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    partition = RegionPartition(
        config.build_mesh(), config.region_w, config.region_h
    )
    for name in _apps(apps):
        workload = build_workload(name)
        comparison, _, opt = compare(
            workload,
            config,
            scale=scale,
            cme_accuracy=cme_accuracy,
            observe=True,
        )
        mai_errors = opt.mai_errors()
        row = {
            "mai_error": mean(mai_errors),
            "net_reduction": comparison.network_latency_reduction,
            "time_reduction": comparison.execution_time_reduction,
            "overhead": comparison.overhead_percent,
            "moved_fraction": 100.0 * opt.moved_fraction,
        }
        if want_cai:
            row["cai_error"] = mean(opt.cai_errors(partition.region_of_node))
        out[name] = row
    return out


def figure07_private(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    cme_accuracy: float = DEFAULT_CME_ACCURACY,
) -> Dict[str, Dict[str, float]]:
    """Figure 7: MAI error, network-latency and exec-time reduction,
    runtime overhead -- private LLCs."""
    return _headline(
        config.private_llc(), apps, scale, cme_accuracy, want_cai=False
    )


def figure08_shared(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    cme_accuracy: float = DEFAULT_CME_ACCURACY,
) -> Dict[str, Dict[str, float]]:
    """Figure 8: same as Figure 7 plus CAI error -- shared (S-NUCA) LLCs."""
    return _headline(
        config.shared_llc(), apps, scale, cme_accuracy, want_cai=True
    )


def summarize(per_app: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Geometric means over applications, metric by metric.

    Delegates to :func:`repro.experiments.report.geomean_summary`, which
    reduces in sorted-key order so the aggregate does not depend on the
    order the per-app rows were inserted (serial figure loops insert in
    suite order; parallel sweeps in completion order).
    """
    from .report import geomean_summary

    return geomean_summary(per_app)


# ----------------------------------------------------------------------
# Figure 9 -- hardware-parameter sensitivity
# ----------------------------------------------------------------------
def figure09_sensitivity(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """variant -> org -> {net_reduction, time_reduction} (geomeans)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label, variant in sensitivity_variants(config).items():
        out[label] = {}
        for org, cfg in _both_orgs(variant).items():
            nets, times = [], []
            for name in _apps(apps):
                comparison, _, _ = compare(
                    build_workload(name), cfg, scale=scale
                )
                nets.append(comparison.network_latency_reduction)
                times.append(comparison.execution_time_reduction)
            out[label][org] = {
                "net_reduction": geomean(nets),
                "time_reduction": geomean(times),
            }
    return out


# ----------------------------------------------------------------------
# Figure 10 -- region count and iteration-set size sweeps
# ----------------------------------------------------------------------
def figure10_regions(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    region_counts: Sequence[int] = (4, 6, 9, 18, 36),
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """org -> region count -> geomean reductions (Figures 10a/10b)."""
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for org, cfg in _both_orgs(config).items():
        out[org] = {}
        for count in region_counts:
            nets, times = [], []
            for name in _apps(apps):
                comparison, _, _ = compare(
                    build_workload(name),
                    cfg,
                    scale=scale,
                    compiler_kwargs={"num_regions": count},
                )
                nets.append(comparison.network_latency_reduction)
                times.append(comparison.execution_time_reduction)
            out[org][count] = {
                "net_reduction": geomean(nets),
                "time_reduction": geomean(times),
            }
    return out


def figure10_iteration_sets(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    fractions: Sequence[float] = (0.001, 0.0025, 0.005, 0.0075, 0.01, 0.02),
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """org -> set-size fraction -> geomean reductions (Figures 10c/10d)."""
    out: Dict[str, Dict[float, Dict[str, float]]] = {}
    for org, cfg in _both_orgs(config).items():
        out[org] = {}
        for fraction in fractions:
            nets, times = [], []
            for name in _apps(apps):
                comparison, _, _ = compare(
                    build_workload(name),
                    cfg,
                    scale=scale,
                    compiler_kwargs={"iteration_set_fraction": fraction},
                )
                nets.append(comparison.network_latency_reduction)
                times.append(comparison.execution_time_reduction)
            out[org][fraction] = {
                "net_reduction": geomean(nets),
                "time_reduction": geomean(times),
            }
    return out


# ----------------------------------------------------------------------
# Figure 11 -- data distribution combinations
# ----------------------------------------------------------------------
def figure11_distribution(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, float]]:
    """(cache-bank, memory-bank) granularity combo -> org -> geomean.

    Combos follow the paper's Figure 11 labels, tuple order
    (cache banks, memory banks).
    """
    from repro.memory.distribution import Granularity

    combos = {
        "(cache line, page)": (Granularity.CACHE_LINE, Granularity.PAGE),
        "(cache line, cache line)": (
            Granularity.CACHE_LINE,
            Granularity.CACHE_LINE,
        ),
        "(page, page)": (Granularity.PAGE, Granularity.PAGE),
        "(page, cache line)": (Granularity.PAGE, Granularity.CACHE_LINE),
    }
    out: Dict[str, Dict[str, float]] = {}
    for label, (bank_gran, mc_gran) in combos.items():
        variant = config.with_updates(
            bank_granularity=bank_gran, mc_granularity=mc_gran
        )
        out[label] = {}
        for org, cfg in _both_orgs(variant).items():
            times = []
            for name in _apps(apps):
                comparison, _, _ = compare(
                    build_workload(name), cfg, scale=scale
                )
                times.append(comparison.execution_time_reduction)
            out[label][org] = geomean(times)
    return out


# ----------------------------------------------------------------------
# Figure 12 -- DDR4
# ----------------------------------------------------------------------
def figure12_ddr4(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, float]]:
    """app -> org -> exec-time reduction with DDR-4 devices."""
    ddr4 = config.with_ddr4()
    out: Dict[str, Dict[str, float]] = {}
    for name in _apps(apps):
        workload = build_workload(name)
        out[name] = {}
        for org, cfg in _both_orgs(ddr4).items():
            comparison, _, _ = compare(workload, cfg, scale=scale)
            out[name][org] = comparison.execution_time_reduction
    return out


# ----------------------------------------------------------------------
# Figure 13 -- LA vs data layout optimization (DO)
# ----------------------------------------------------------------------
def figure13_layout(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Sequence[str] = LAYOUT_COMPARISON_APPS,
    scale: float = 1.0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """app -> org -> {LA, DO, LA+DO} exec-time reductions."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in apps:
        workload = build_workload(name)
        out[name] = {}
        for org, cfg in _both_orgs(config).items():
            base = run_workload(workload, cfg, mapping="default", scale=scale)
            row = {}
            for label, mapping in (("LA", "la"), ("DO", "do"), ("LA+DO", "la+do")):
                opt = run_workload(workload, cfg, mapping=mapping, scale=scale)
                row[label] = percent_reduction(
                    base.stats.execution_cycles, opt.stats.execution_cycles
                )
            out[name][org] = row
    return out


# ----------------------------------------------------------------------
# Figure 14 -- LA vs hardware-based computation placement
# ----------------------------------------------------------------------
def figure14_hardware(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """app -> org -> {compiler, hardware} exec-time reductions."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in _apps(apps):
        workload = build_workload(name)
        out[name] = {}
        for org, cfg in _both_orgs(config).items():
            base = run_workload(workload, cfg, mapping="default", scale=scale)
            row = {}
            for label, mapping in (("compiler", "la"), ("hardware", "hardware")):
                opt = run_workload(workload, cfg, mapping=mapping, scale=scale)
                row[label] = percent_reduction(
                    base.stats.execution_cycles, opt.stats.execution_cycles
                )
            out[name][org] = row
    return out


# ----------------------------------------------------------------------
# Figure 15 -- perfect MAI/CAI/CME estimation ("optimality")
# ----------------------------------------------------------------------
def figure15_perfect_estimation(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """app -> org -> {realistic, perfect} exec-time reductions.

    ``perfect`` uses a 100%-accurate CME; ``realistic`` the default 85%
    accuracy (the paper's 76-93% band).  Irregular codes learn affinities
    at run time, so both modes coincide for them by construction -- the
    paper makes the same observation.
    """
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in _apps(apps):
        workload = build_workload(name)
        out[name] = {}
        for org, cfg in _both_orgs(config).items():
            realistic, _, _ = compare(
                workload, cfg, scale=scale, cme_accuracy=DEFAULT_CME_ACCURACY
            )
            perfect, _, _ = compare(
                workload, cfg, scale=scale, cme_accuracy=1.0
            )
            out[name][org] = {
                "realistic": realistic.execution_time_reduction,
                "perfect": perfect.execution_time_reduction,
            }
    return out


# ----------------------------------------------------------------------
# Figures 16 / 17 -- KNL cluster modes
# ----------------------------------------------------------------------
def figure16_knl_modes(
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Dict[str, float]]:
    """mode/mapping -> geomean exec-time improvement vs original all-to-all.

    Rows: original quadrant, original SNC-4, optimized all-to-all,
    optimized quadrant, optimized SNC-4 (Figure 16's bars).
    """
    from repro.baselines.default import default_schedules, partition_all_nests
    from repro.knl import ClusterMode, first_touch_pages, knl_config

    names = _apps(apps)
    baselines: Dict[str, float] = {}
    variants: Dict[str, List[float]] = {
        "Original quadrant": [],
        "Original SNC-4": [],
        "Optimized all-to-all": [],
        "Optimized quadrant": [],
        "Optimized SNC-4": [],
    }
    for name in names:
        workload = build_workload(name)
        base_cfg = knl_config(ClusterMode.ALL_TO_ALL)
        ref = run_workload(
            workload, base_cfg, mapping="default", scale=scale
        ).stats.execution_cycles
        # SNC-4's defining property is first-touch page placement: build the
        # per-workload page->quadrant table from the default schedule.
        instance = workload.instantiate(
            page_bytes=base_cfg.page_bytes, scale=scale
        )
        iteration_sets = partition_all_nests(
            instance, set_fraction=base_cfg.iteration_set_fraction
        )
        schedules = default_schedules(instance, iteration_sets, 36)
        touch_table = first_touch_pages(
            instance, iteration_sets, schedules, base_cfg.layout(), 6, 6
        )

        def improvement(mode, mapping):
            table = touch_table if mode is ClusterMode.SNC4 else None
            cfg = knl_config(mode, page_to_quadrant=table)
            run = run_workload(workload, cfg, mapping=mapping, scale=scale)
            return percent_reduction(ref, run.stats.execution_cycles)

        variants["Original quadrant"].append(
            improvement(ClusterMode.QUADRANT, "default")
        )
        variants["Original SNC-4"].append(
            improvement(ClusterMode.SNC4, "default")
        )
        variants["Optimized all-to-all"].append(
            improvement(ClusterMode.ALL_TO_ALL, "la")
        )
        variants["Optimized quadrant"].append(
            improvement(ClusterMode.QUADRANT, "la")
        )
        variants["Optimized SNC-4"].append(
            improvement(ClusterMode.SNC4, "la")
        )
    return {label: {"geomean": geomean(vals)} for label, vals in variants.items()}


def figure17_knl_scaling(
    apps: Sequence[str] = KNL_SCALING_APPS,
    base_scale: float = 0.5,
    factors: Sequence[float] = (1.0, 2.0, 4.0),
) -> Dict[str, Dict[float, float]]:
    """app -> input-scale factor -> exec-time improvement (quadrant mode).

    The paper's observation: LA's relative improvement grows with input
    size because the unoptimized code degrades faster.
    """
    from repro.knl import ClusterMode, knl_config

    cfg = knl_config(ClusterMode.QUADRANT)
    out: Dict[str, Dict[float, float]] = {}
    for name in apps:
        workload = build_workload(name)
        out[name] = {}
        for factor in factors:
            comparison, _, _ = compare(
                workload, cfg, scale=base_scale * factor
            )
            out[name][factor] = comparison.execution_time_reduction
    return out


# ----------------------------------------------------------------------
# Table 3 -- benchmark properties
# ----------------------------------------------------------------------
def table03_properties(
    config: SystemConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> List[Dict[str, object]]:
    """Static program properties plus the load-balance moved fraction."""
    rows: List[Dict[str, object]] = []
    for name in _apps(apps):
        workload = build_workload(name)
        result = run_workload(workload, config, mapping="la", scale=scale)
        instance = workload.instantiate(
            page_bytes=config.page_bytes, scale=scale
        )
        from repro.ir.iterspace import partition_iteration_sets

        total_sets = sum(
            len(
                partition_iteration_sets(
                    instance.nest_domain(i).size,
                    set_fraction=config.iteration_set_fraction,
                )
            )
            for i in range(len(instance.program.nests))
        )
        rows.append(
            {
                "benchmark": name,
                "loop_nests": workload.num_loop_nests,
                "arrays": workload.num_arrays,
                "iteration_sets": total_sets,
                "moved_percent": 100.0 * result.moved_fraction,
                "regular": workload.regular,
            }
        )
    return rows
