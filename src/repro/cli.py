"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                          -- the 21 benchmarks: Table 3's static
                                       columns plus a description
* ``analyze [APP ...] [--json F]``  -- static safety/legality verification
* ``lint [--json F] [--paths P]``   -- source-level determinism &
                                       process-safety lint of the repo's
                                       own ``src/repro`` tree
* ``run [APP ...] [--mapping M] [--workers N] [--cache-dir D]``
                                    -- simulate one or many apps as a
                                       sweep of cells; ``--workers`` and
                                       ``--cache-dir`` shard and memoize
                                       it without changing a number;
                                       ``--trace [F]`` also records a
                                       validated span trace of the sweep;
                                       ``--fault SPEC`` runs under a gated
                                       fault plan
* ``metrics APP [...]``             -- Prometheus-style text exposition of
                                       one instrumented run
* ``bench {history,check}``         -- perf trajectory: list recorded
                                       BENCH points / flag regressions
* ``cache {stats,clear}``           -- inspect / empty a result cache
* ``compare APP [...]``             -- default vs location-aware side by side
* ``profile APP [...]``             -- phase breakdown + manifest for one
                                       run (``--json`` machine-readable)
* ``heatmap APP [--metric M] [...]``-- spatial traffic over the mesh
* ``faults {list,compare} [APP ...]``-- fault plans: show the grammar or
                                       render a plan; A/B the fault-aware
                                       vs oblivious mapping
* ``fuzz [--seed --iterations]``    -- differential fuzzing: random
                                       configs/workloads/faults through
                                       the fast-vs-reference and
                                       serial-vs-parallel oracles plus
                                       metamorphic invariants; failures
                                       shrink to a replayable corpus
* ``figure NAME [...]``             -- regenerate one paper figure's table

Every ``--fault`` plan passes the static analyzer's FLT rules before any
machine is built: a malformed spec exits 2, an illegal plan prints the
FLT report and exits with the gate's code.

Examples::

    python -m repro analyze --json diagnostics.json
    python -m repro analyze mxm nbf --verbose
    python -m repro analyze --fixture carried-stencil   # exits 1
    python -m repro lint --json repro_lint.json
    python -m repro lint --list-rules
    python -m repro compare mxm --scale 0.6
    python -m repro run nbf --mapping la --llc private
    python -m repro run --suite --workers 4 --cache-dir .repro-cache
    python -m repro run mxm nbf --workers 2 --cache-dir .repro-cache --json sweep.json
    python -m repro run --suite --workers 4 --trace run.trace.json
    python -m repro run mxm nbf --fault "mc:1:throttle=0.5" --scale 0.2
    python -m repro metrics mxm --mapping la
    python -m repro bench history
    python -m repro bench check --json bench-check.json
    python -m repro cache stats --cache-dir .repro-cache
    python -m repro profile mxm --mapping la --events /tmp/mxm.jsonl
    python -m repro profile mxm --json
    python -m repro heatmap mxm --metric mc --mapping la
    python -m repro figure fig09 --apps mxm,nbf --scale 0.5
    python -m repro fuzz --seed 7 --iterations 25 --json fuzz.json
    python -m repro fuzz --time-budget 60 --corpus-dir tests/fuzz/corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analyze import (
    SCHEMA,
    analyze_config,
    analyze_run,
    build_fixture,
    fixture_names,
    rule_catalogue,
)
from repro.experiments import figures as fig
from repro.experiments.harness import MAPPINGS, compare, run_workload
from repro.experiments.report import print_table
from repro.obs import LEVELS, EventStream, Telemetry
from repro.obs.manifest import manifest_counters
from repro.obs.render import (
    HEATMAP_METRICS,
    heatmap_csv,
    render_fault_overlay,
    render_heatmap,
    render_histograms,
    render_manifest,
    render_phase_table,
)
from repro.sim.config import DEFAULT_CONFIG, SystemConfig
from repro.workloads import SUITE_ORDER, build_workload, suite_properties

FIGURES = {
    "fig02": fig.figure02_ideal_network,
    "fig07": fig.figure07_private,
    "fig08": fig.figure08_shared,
    "fig09": fig.figure09_sensitivity,
    "fig10-regions": fig.figure10_regions,
    "fig10-sets": fig.figure10_iteration_sets,
    "fig11": fig.figure11_distribution,
    "fig12": fig.figure12_ddr4,
    "fig13": fig.figure13_layout,
    "fig14": fig.figure14_hardware,
    "fig15": fig.figure15_perfect_estimation,
    "fig16": fig.figure16_knl_modes,
    "fig17": fig.figure17_knl_scaling,
}

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_BASELINE_NAME = "lint-baseline.json"


def _config(args) -> SystemConfig:
    config = DEFAULT_CONFIG
    if args.llc == "private":
        config = config.private_llc()
    return config


def _apps(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [a.strip() for a in raw.split(",") if a.strip()]


def _write_json(path: str, payload: Any) -> None:
    """Write a command's ``--json FILE`` artifact (sorted keys)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"JSON -> {path}")


def _fault_plan(args, config: SystemConfig):
    """Parse the ``--fault`` specs and gate the plan before any machine
    is built.

    Returns ``(plan, 0)`` -- ``plan`` is None without specs -- or, after
    reporting why, ``(None, 2)`` for a malformed spec and ``(None, code)``
    with the gate's exit code for a plan the FLT rules reject.
    """
    if not args.fault:
        return None, 0
    from repro.analyze import AnalysisError, gate
    from repro.faults import FaultPlan, FaultPlanError

    try:
        plan = FaultPlan.parse(args.fault)
    except FaultPlanError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return None, 2
    try:
        gate(config=config, fault_plan=plan)
    except AnalysisError as exc:
        print(exc.report.render_text())
        print("fault plan rejected by the static analyzer", file=sys.stderr)
        return None, max(exc.report.exit_code, 1)
    return plan, 0


def cmd_list(args) -> int:
    print_table(
        ["benchmark", "class", "nests", "arrays", "iteration sets",
         "description"],
        [
            [r["benchmark"], "regular" if r["regular"] else "irregular",
             r["loop_nests"], r["arrays"], r["iteration_sets"],
             build_workload(r["benchmark"]).description]
            for r in suite_properties()
        ],
        title="The 21-benchmark suite (Table 3 static columns)",
    )
    return 0


def cmd_analyze(args) -> int:
    """Static verification: parallel safety + mapping/config legality."""
    if args.list_rules:
        print_table(
            ["rule", "severity", "title"],
            [[r["rule"], r["severity"], r["title"]] for r in rule_catalogue()],
            title="registered analysis rules",
        )
        return 0

    config = _config(args)
    reports = []
    if args.config_only:
        reports.append(analyze_config(config))
    else:
        workloads = []
        if args.fixture:
            workloads.append(build_fixture(args.fixture))
        for app in args.apps:
            workloads.append(build_workload(app))
        if not workloads:  # no explicit subject: the whole bundled suite
            workloads = [build_workload(name) for name in SUITE_ORDER]
        for workload in workloads:
            reports.append(analyze_run(workload=workload, config=config))

    for report in reports:
        print(report.render_text(verbose=args.verbose))
    exit_code = max(r.exit_code for r in reports)
    totals = {"info": 0, "warning": 0, "error": 0}
    for report in reports:
        for key, value in report.counts().items():
            totals[key] += value
    print(
        f"analyzed {len(reports)} subject(s): {totals['error']} error(s), "
        f"{totals['warning']} warning(s), {totals['info']} info -> "
        + ("OK" if exit_code == 0 else "ILLEGAL")
    )
    if args.json:
        _write_json(args.json, {
            "schema": SCHEMA,
            "summary": {**totals, "ok": exit_code == 0},
            "reports": [r.to_dict() for r in reports],
        })
    return exit_code


def _default_baseline_path():
    """The checked-in repo baseline when present, else CWD's, else None."""
    from repro.analyze.source import package_root

    repo_root = package_root().parent.parent
    for candidate in (
        repo_root / DEFAULT_BASELINE_NAME,
        Path.cwd() / DEFAULT_BASELINE_NAME,
    ):
        if candidate.exists():
            return candidate
    return None


def cmd_lint(args) -> int:
    """Source-level determinism & process-safety lint (self-certification)."""
    from repro.analyze.source import (
        DEFAULT_MANIFEST,
        Baseline,
        ZoneManifest,
        lint_package,
        lint_paths,
        source_rules,
    )

    if args.list_rules:
        print_table(
            ["rule", "severity", "zones", "title"],
            [
                [
                    cls.rule_id,
                    cls.default_severity.value,
                    ",".join(cls.zones) or "(all)",
                    cls.title,
                ]
                for cls in source_rules()
            ],
            title="source lint rules",
        )
        return 0

    baseline_path = args.baseline or _default_baseline_path()
    baseline = Baseline.load(baseline_path)
    manifest = None
    if args.zone:
        # Ad-hoc zoning: every linted module additionally carries the
        # requested tags (useful when pointing --paths at loose files).
        manifest = ZoneManifest(
            [*DEFAULT_MANIFEST.assignments, ("*", tuple(args.zone))]
        )
    if args.paths:
        report = lint_paths(args.paths, manifest=manifest, baseline=baseline)
    else:
        report = lint_package(baseline=baseline, manifest=manifest)

    if args.update_baseline:
        target = args.baseline or baseline_path or DEFAULT_BASELINE_NAME
        report.to_baseline().save(target)
        print(
            f"baseline with {len(report.active)} entr(ies) -> {target} "
            "(policy: fix findings instead; keep the checked-in file empty)"
        )
        return 0

    print(report.render_text(verbose=args.verbose))
    if args.json:
        _write_json(args.json, report.to_dict())
    return report.exit_code


def cmd_run(args) -> int:
    apps = list(SUITE_ORDER) if args.suite else args.apps
    if not apps:
        print("no applications given (name apps or pass --suite)",
              file=sys.stderr)
        return 2
    config = _config(args)
    fault_plan, refused = _fault_plan(args, config)
    if refused:
        return refused
    fault_aware = not args.no_fault_aware
    cache_dir = args.cache_dir or None
    # A result cache directory implies a compile store beneath it.
    compile_cache_dir = args.compile_cache_dir or (
        str(Path(cache_dir) / "compile") if cache_dir else None
    )

    from repro.exec import run_sweep, sweep_matrix, sweep_table, sweep_tracer

    if args.gate:
        from repro.analyze import gate as analyze_gate

        for app in apps:
            analyze_gate(
                workload=build_workload(app), config=config,
                fault_plan=fault_plan,
            )
    common = {}
    if compile_cache_dir is not None:
        common["compile_cache_dir"] = compile_cache_dir
    if fault_plan is not None:
        common["faults"] = fault_plan.to_specs()
        common["fault_aware"] = fault_aware
    cells = sweep_matrix(
        apps, config, mappings=(args.mapping,), scales=(args.scale,),
        **common,
    )
    tracer = sweep_tracer(cells) if args.trace else None
    result = run_sweep(
        cells, workers=args.workers, cache_dir=cache_dir, tracer=tracer,
    )
    print(sweep_table(
        result,
        title=(f"sweep [{args.mapping}, {args.llc} LLC, "
               f"scale {args.scale}, workers {args.workers}]"),
    ))
    if fault_plan is not None:
        print(f"faults: {fault_plan.describe()} "
              f"({'aware' if fault_aware else 'oblivious'} mapping)")
    summary = result.summary()
    print()
    print(f"wall time: {summary['wall_seconds']:.2f}s  "
          f"workers: {summary['workers']}")
    if cache_dir is not None:
        print(f"cache: {summary['cache_hits']} hit(s), "
              f"{summary['cache_misses']} miss(es) "
              f"({100 * summary['cache_hit_rate']:.1f}% hit rate) "
              f"-> {cache_dir}")
    if compile_cache_dir is not None:
        cc = summary["compile_cache"]
        print(f"compile cache: {cc['hits']} hit(s), "
              f"{cc['misses']} miss(es) "
              f"({100 * cc['hit_rate']:.1f}% hit rate) "
              f"-> {compile_cache_dir}")
    if summary["retries"] or summary["fallbacks"]:
        print(f"recovered: {summary['retries']} retri(es), "
              f"{summary['fallbacks']} in-process fallback(s)")
    violations: List[str] = []
    if tracer is not None:
        from repro.obs.tracing import validate_trace_events

        tracer.save(args.trace)
        violations = validate_trace_events(
            json.loads(Path(args.trace).read_text(encoding="utf-8"))
        )
        print(f"trace: {len(tracer.spans)} span(s), "
              f"{len(tracer.worker_pids())} worker pid(s) -> {args.trace}")
        print(f"trace id: {tracer.context.trace_id}  schema: "
              + ("; ".join(violations) or "OK"))
    if args.json:
        _write_json(args.json, summary)
    return 1 if violations else 0


def cmd_cache(args) -> int:
    from repro.compile import COMPILE_SCHEMA_VERSION
    from repro.exec import ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    # The compile-side artifact store lives under the result cache root
    # (the same place `repro run --cache-dir D` defaults it to).
    compile_root = cache.root / "compile"
    compile_store = (
        ResultCache(compile_root, schema=COMPILE_SCHEMA_VERSION)
        if compile_root.exists()
        else None
    )
    if args.action == "clear":
        removed = cache.clear()
        if compile_store is not None:
            removed += compile_store.clear()
        print(f"removed {removed} cached entr(ies) from {cache.root}")
        return 0
    stats = cache.stats()
    stats["compile"] = (
        compile_store.stats() if compile_store is not None else None
    )
    print(f"cache at {stats['root']} (schema v{stats['schema']})")
    print(f"  entries:     {stats['entries']}")
    print(f"  bytes:       {stats['bytes']:,}")
    print(f"  quarantined: {stats['quarantined']}")
    if stats["compile"] is not None:
        compile_stats = stats["compile"]
        print(f"compile artifacts at {compile_stats['root']} "
              f"(schema {compile_stats['schema']})")
        print(f"  entries:     {compile_stats['entries']}")
        print(f"  bytes:       {compile_stats['bytes']:,}")
        print(f"  quarantined: {compile_stats['quarantined']}")
    if args.json:
        _write_json(args.json, stats)
    return 0


def cmd_compare(args) -> int:
    workload = build_workload(args.app)
    # Profile the comparison's optimized run so the report says not only
    # what the numbers are but where the wall time producing them went.
    telemetry = Telemetry(events=EventStream(level="off"))
    comparison, base, opt = compare(
        workload, _config(args), optimized=args.mapping, scale=args.scale,
        telemetry=telemetry,
    )
    print_table(
        ["metric", "default", args.mapping],
        [
            ["execution cycles", base.stats.execution_cycles,
             opt.stats.execution_cycles],
            ["avg network latency", base.stats.avg_network_latency,
             opt.stats.avg_network_latency],
            ["avg hops", base.stats.avg_hops, opt.stats.avg_hops],
        ],
        title=f"{args.app} ({args.llc} LLC, scale {args.scale})",
        float_fmt="{:.2f}",
    )
    print(f"network latency reduction: "
          f"{comparison.network_latency_reduction:6.1f}%")
    print(f"execution time reduction:  "
          f"{comparison.execution_time_reduction:6.1f}%")
    print()
    print(render_phase_table(
        telemetry, title=f"phase profile ({args.mapping} run)"
    ))
    print(render_manifest(opt.stats.manifest))
    return 0


def _run_with_telemetry(args, level: str = "off", fault_plan=None):
    """Shared profile/metrics/heatmap front half: one instrumented run."""
    telemetry = Telemetry(events=EventStream(level=level))
    result = run_workload(
        build_workload(args.app), _config(args), mapping=args.mapping,
        scale=args.scale, telemetry=telemetry, fault_plan=fault_plan,
    )
    return telemetry, result


def cmd_profile(args) -> int:
    telemetry, result = _run_with_telemetry(args, level=args.level)
    if args.events:
        telemetry.events.save(args.events)
    stats = result.stats
    if args.json:
        snap = telemetry.snapshot()
        json.dump({
            "schema": "repro.profile/1",
            "app": args.app,
            "mapping": args.mapping,
            "llc": args.llc,
            "scale": args.scale,
            "workers": 1,
            "counters": manifest_counters(stats.manifest),
            "histograms": snap["histograms"],
            "phases": snap["phases"],
            "manifest": stats.manifest,
            "stats": {
                "execution_cycles": stats.execution_cycles,
                "avg_network_latency": stats.avg_network_latency,
                "avg_hops": stats.avg_hops,
                "l1_hit_rate": stats.l1_hit_rate,
                "llc_miss_rate": stats.llc_miss_rate,
            },
        }, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{args.app} [{args.mapping}, {args.llc} LLC, "
          f"scale {args.scale}]")
    print()
    print(render_phase_table(telemetry))
    print()
    print(render_histograms(telemetry))
    print()
    print(render_manifest(stats.manifest))
    if args.events:
        print(f"\n{len(telemetry.events.events)} events -> "
              f"{args.events}")
    return 0


def cmd_metrics(args) -> int:
    """Prometheus-style text exposition of one instrumented run."""
    from repro.obs.metrics import prometheus_text

    telemetry, _ = _run_with_telemetry(args, level="decisions")
    text = prometheus_text(
        telemetry, labels={"app": args.app, "mapping": args.mapping},
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"metrics -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    """The perf-regression watch over ``benchmarks/history/*.jsonl``."""
    from repro.analyze.source.report import load_lint_verdict
    from repro.obs.bench import check_history, load_history

    history_dir = args.dir or None
    if args.action == "history":
        series = load_history(history_dir)
        if not series:
            print("no recorded bench history (run the perf harnesses: "
                  "python -m pytest benchmarks/)")
            return 0
        rows = []
        for name, entries in sorted(series.items()):
            last = entries[-1]
            metrics = ", ".join(
                f"{metric}={spec['value']:.4g}"
                for metric, spec in sorted((last.get("metrics") or {}).items())
            )
            rows.append([
                name, len(entries), str(last.get("git_sha", "unknown"))[:12],
                metrics or "-",
            ])
        print_table(
            ["series", "entries", "latest sha", "latest metrics"], rows,
            title="bench trajectory",
        )
        if args.json:
            _write_json(args.json, series)
        return 0

    report = check_history(history_dir, tolerance=args.tolerance)
    rows = []
    for name, series_report in sorted(report["series"].items()):
        for metric, verdict in sorted(series_report.items()):
            if metric == "entries":
                continue
            rows.append([
                name, metric, verdict["points"],
                verdict["baseline"] if verdict["baseline"] is not None
                else "-",
                verdict["latest"],
                "REGRESSED" if verdict["regressed"] else "ok",
            ])
    if rows:
        print_table(
            ["series", "metric", "points", "baseline", "latest", "verdict"],
            rows,
            title=f"bench check (tolerance {report['tolerance']:.0%})",
            float_fmt="{:.4f}",
        )
    else:
        print("no recorded bench history to check")
    # Without --lint-report, fold in repro_lint.json only when it exists.
    lint_path = Path(args.lint_report or "repro_lint.json")
    if args.lint_report or lint_path.exists():
        try:
            lint = load_lint_verdict(lint_path)
        except ValueError as exc:
            print(exc, file=sys.stderr)
        else:
            summary = lint["summary"]
            print(
                f"lint: {'OK' if summary.get('ok') else 'FAIL'} "
                f"({summary.get('active', '?')} active finding(s) over "
                f"{summary.get('files', '?')} file(s), "
                f"artifact {lint['path']})"
            )
            report["lint"] = lint
    if args.json:
        _write_json(args.json, report)
    if not report["ok"]:
        for regression in report["regressions"]:
            print(f"REGRESSION: {regression['series']}.{regression['metric']} "
                  f"{regression['baseline']} -> {regression['latest']} "
                  f"({100 * regression['delta_fraction']:+.1f}%)",
                  file=sys.stderr)
        return 1
    return 0


def cmd_heatmap(args) -> int:
    config = _config(args)
    plan, refused = _fault_plan(args, config)
    if refused:
        return refused
    telemetry, _ = _run_with_telemetry(args, fault_plan=plan)
    mesh = config.build_mesh()
    if plan is not None and args.format != "csv":
        print(render_fault_overlay(
            mesh, plan, title=f"{args.app} -- injected faults"
        ))
        print()
    metrics = (
        list(HEATMAP_METRICS) if args.metric == "all" else [args.metric]
    )
    for metric in metrics:
        if args.format == "csv":
            sys.stdout.write(heatmap_csv(telemetry.spatial, mesh, metric))
        else:
            print(render_heatmap(
                telemetry.spatial, mesh, metric,
                region_w=config.region_w, region_h=config.region_h,
                title=(
                    f"{args.app} [{args.mapping}] -- {metric}"
                ),
            ))
            print()
    return 0


def cmd_faults(args) -> int:
    """Fault plans: show the grammar or render a plan; A/B the mappings."""
    import math

    from repro.faults.plan import SPEC_GRAMMAR

    config = _config(args)
    plan, refused = _fault_plan(args, config)
    if refused:
        return refused

    if args.action == "list":
        if plan is None:
            print("fault spec grammar:")
            print(SPEC_GRAMMAR)
            print("\npass one or more --fault specs to render a plan")
            return 0
        print(f"plan hash: {plan.plan_hash()}  ({len(plan)} fault(s))")
        print(render_fault_overlay(
            config.build_mesh(), plan, title="fault plan overlay"
        ))
        return 0

    if plan is None:
        print("no --fault specs given", file=sys.stderr)
        return 2
    if not args.apps:
        print("no applications given", file=sys.stderr)
        return 2

    # compare: fault-aware vs fault-oblivious location-aware mapping on
    # the *same* degraded machine.
    rows = []
    records = []
    ratios = []
    for app in args.apps:
        workload = build_workload(app)
        aware = run_workload(
            workload, config, mapping="la", scale=args.scale,
            fault_plan=plan, fault_aware=True,
        )
        oblivious = run_workload(
            workload, config, mapping="la", scale=args.scale,
            fault_plan=plan, fault_aware=False,
        )
        a = aware.stats.avg_network_latency
        o = oblivious.stats.avg_network_latency
        ratio = a / o if o else 1.0
        ratios.append(ratio)
        rows.append([app, a, o, ratio])
        records.append({
            "app": app,
            "aware_net_latency": a,
            "oblivious_net_latency": o,
            "ratio": ratio,
        })
    geomean_ratio = math.exp(
        sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios)
    )
    print_table(
        ["app", "aware", "oblivious", "ratio"], rows,
        title=(f"fault-aware vs oblivious NoC latency "
               f"[plan {plan.plan_hash()}, scale {args.scale}]"),
        float_fmt="{:.3f}",
    )
    ok = geomean_ratio <= 1.0 + 1e-6
    print(f"geomean ratio (aware/oblivious): {geomean_ratio:.4f} -> "
          + ("fault-aware mapping degrades gracefully (<= oblivious)"
             if ok else "fault-aware mapping LOST to oblivious"))
    if args.json:
        _write_json(args.json, {
            "plan": list(plan.to_specs()),
            "plan_hash": plan.plan_hash(),
            "scale": args.scale,
            "apps": records,
            "geomean_ratio": geomean_ratio,
            "fault_aware_wins": ok,
        })
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    from repro.fuzz import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        shrink_failures=args.shrink,
        corpus_dir=args.corpus_dir or None,
        progress=print,
    )
    divergences = report["divergences"]
    status = "ok" if report["ok"] else f"{len(divergences)} divergence(s)"
    budget = " (time budget exhausted)" if report["budget_exhausted"] else ""
    print(f"fuzz: seed={report['seed']} cases={report['cases_run']}/"
          f"{report['iterations_requested']}{budget} -> {status}")
    for div in divergences:
        shrunk = div.get("shrunk")
        case_id = (shrunk or div)["case_id"]
        detail = (shrunk or div)["detail"]
        print(f"  [{div['check']}] {case_id}: {detail}")
        if "corpus_path" in div:
            print(f"    corpus entry: {div['corpus_path']}")
    if args.json:
        _write_json(args.json, report)
    return 0 if report["ok"] else 1


def cmd_figure(args) -> int:
    import pprint

    kwargs: Dict[str, Any] = {}
    apps = _apps(args.apps)
    if apps is not None:
        kwargs["apps"] = apps  # otherwise each figure uses its own default
    if args.name == "fig17":
        kwargs["base_scale"] = args.scale
    else:
        kwargs["scale"] = args.scale
    pprint.pprint(FIGURES[args.name](**kwargs))
    return 0


# ----------------------------------------------------------------------
# The command table: each subcommand once, as (name, help, handler,
# argument specs); the arguments several commands take are defined once.
# ----------------------------------------------------------------------
ArgSpec = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **spec: Any) -> ArgSpec:
    return flags, spec


def _mapping(default: str) -> ArgSpec:
    return _arg("--mapping", default=default, choices=MAPPINGS)


def _scale(default: float = 1.0) -> ArgSpec:
    return _arg("--scale", type=float, default=default)


APP = _arg("app", choices=SUITE_ORDER)
APPS = _arg("apps", nargs="*", choices=[[]] + list(SUITE_ORDER),
            help="benchmarks (analyze defaults to the whole suite; run "
                 "takes --suite for all 21)")
LLC = _arg("--llc", default="shared", choices=("shared", "private"))
JSON_FILE = _arg("--json", default="", metavar="FILE",
                 help="also write the machine-readable result to this file")
FAULT = _arg("--fault", action="append", default=[], metavar="SPEC",
             help="inject a fault (repeatable); the plan must pass the "
                  "FLT rules; see 'repro faults list' for the grammar")
NO_FAULT_AWARE = _arg("--no-fault-aware", action="store_true",
                      help="keep the mapping oblivious to injected faults "
                           "(A/B baseline)")
ONE_RUN = (APP, _mapping("la"), LLC, _scale())

Handler = Callable[[argparse.Namespace], int]

COMMANDS: Tuple[Tuple[str, str, Handler, Tuple[ArgSpec, ...]], ...] = (
    ("list", "the benchmark suite with Table 3's static columns",
     cmd_list, ()),
    ("analyze", "static verification: parallel safety + mapping legality",
     cmd_analyze, (
         APPS,
         _arg("--fixture", default="", choices=[""] + fixture_names(),
              help="also analyze a deliberately-flawed fixture workload"),
         _arg("--config-only", action="store_true",
              help="check only the machine configuration invariants"),
         LLC,
         JSON_FILE,
         _arg("--verbose", action="store_true",
              help="also print info-severity findings (certificates)"),
         _arg("--list-rules", action="store_true",
              help="print the rule catalogue and exit"),
     )),
    ("lint", "source-level determinism & process-safety lint of src/repro",
     cmd_lint, (
         _arg("--paths", nargs="+", default=[], metavar="PATH",
              help="lint these files/directories instead of the "
                   "installed repro package"),
         _arg("--zone", action="append", default=[],
              choices=("id", "serialize", "report", "retry", "dispatch"),
              help="additionally apply this determinism zone to every "
                   "linted module (repeatable; for --paths over loose "
                   "files)"),
         _arg("--baseline", default="",
              help=f"baseline file (default: {DEFAULT_BASELINE_NAME} at "
                   "the repo root or CWD when present)"),
         _arg("--update-baseline", action="store_true",
              help="grandfather every active finding into the baseline "
                   "file (escape hatch; policy is to fix)"),
         _arg("--list-rules", action="store_true",
              help="show the source-rule catalogue and exit"),
         _arg("--verbose", action="store_true",
              help="also show suppressed and baselined findings"),
         JSON_FILE,
     )),
    ("run", "simulate one or many applications as a sweep of cells",
     cmd_run, (
         APPS,
         _mapping("default"),
         LLC,
         _scale(),
         _arg("--gate", action="store_true",
              help="run the static analyzer first; refuse to simulate on "
                   "error findings"),
         _arg("--suite", action="store_true",
              help="run the whole 21-benchmark suite"),
         _arg("--workers", type=int, default=1,
              help="process-pool width (default 1 = serial)"),
         _arg("--cache-dir", default="",
              help="memoize completed cells in this content-addressed "
                   "cache directory"),
         _arg("--compile-cache-dir", default="",
              help="persist compile-side artifacts (CME estimates, "
                   "affinities, proximity tables) in this directory "
                   "(default: <cache-dir>/compile when --cache-dir is "
                   "given)"),
         JSON_FILE,
         _arg("--trace", nargs="?", const="run.trace.json", default="",
              metavar="FILE",
              help="record a span trace of the sweep to this Trace Event "
                   "JSON file (default: run.trace.json), validate it and "
                   "exit 1 on a schema violation"),
         FAULT,
         NO_FAULT_AWARE,
     )),
    ("metrics", "Prometheus-style text metrics of one instrumented run",
     cmd_metrics, (
         *ONE_RUN,
         _arg("--out", default="",
              help="write the exposition to this file instead of stdout"),
     )),
    ("bench", "perf trajectory: list recorded BENCH points, flag regressions",
     cmd_bench, (
         _arg("action", choices=("history", "check"),
              help="history: list the recorded trajectory; check: flag "
                   "latest-vs-trajectory regressions"),
         _arg("--dir", default="",
              help="history directory (default: benchmarks/history)"),
         _arg("--tolerance", type=float, default=0.10,
              help="noise band for 'check' (default: 0.10 = 10%%)"),
         JSON_FILE,
         _arg("--lint-report", default="",
              help="repro.lint/1 artifact for 'check' to fold into its "
                   "verdict (default: repro_lint.json in the CWD when "
                   "present)"),
     )),
    ("cache", "inspect or clear a sweep result cache", cmd_cache, (
        _arg("action", choices=("stats", "clear")),
        _arg("--cache-dir", default="",
             help=f"cache directory (default: {DEFAULT_CACHE_DIR})"),
        JSON_FILE,
    )),
    ("compare", "default vs optimized mapping", cmd_compare, ONE_RUN),
    ("profile", "phase breakdown, distributions, run manifest",
     cmd_profile, (
         *ONE_RUN,
         _arg("--level", default="decisions", choices=LEVELS,
              help="event stream verbosity"),
         _arg("--events", default="",
              help="write the event stream to this JSONL file"),
         _arg("--json", action="store_true",
              help="machine-readable profile on stdout (stable key order) "
                   "instead of the tables"),
     )),
    ("heatmap", "spatial traffic heatmaps over the mesh", cmd_heatmap, (
        *ONE_RUN,
        _arg("--metric", default="mc", choices=HEATMAP_METRICS + ("all",)),
        _arg("--format", default="ascii", choices=("ascii", "csv")),
        FAULT,
    )),
    ("faults", "fault plans: grammar, plan overlay, aware vs oblivious A/B",
     cmd_faults, (
         _arg("action", choices=("list", "compare"),
              help="list: render/validate a plan (or show the grammar); "
                   "compare: fault-aware vs oblivious mapping"),
         APPS,
         FAULT,
         LLC,
         _scale(0.2),
         JSON_FILE,
     )),
    ("fuzz", "differential fuzzing: random configs through the "
             "fast/reference and serial/parallel oracles plus metamorphic "
             "invariants; failures shrink to a corpus",
     cmd_fuzz, (
         _arg("--seed", type=int, default=7,
              help="master seed; each case derives from (seed, index)"),
         _arg("--iterations", type=int, default=25,
              help="number of cases to generate and check"),
         _arg("--time-budget", type=float, default=None, metavar="SEC",
              help="stop generating new cases after this many seconds "
                   "(the in-flight case always completes)"),
         _arg("--shrink", action=argparse.BooleanOptionalAction,
              default=True,
              help="minimize failing cases before reporting/filing"),
         _arg("--corpus-dir", default="",
              help="file shrunk divergences as replayable JSON entries in "
                   "this directory"),
         JSON_FILE,
     )),
    ("figure", "regenerate one figure's data", cmd_figure, (
        _arg("name", choices=sorted(FIGURES)),
        _arg("--apps", default=""),
        _scale(),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, specs in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flags, spec in specs:
            command.add_argument(*flags, **spec)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
