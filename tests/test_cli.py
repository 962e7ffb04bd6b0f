"""Command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "mxm"])
        assert args.mapping == "default"
        assert args.llc == "shared"
        assert args.scale == 1.0

    def test_compare_defaults_to_la(self):
        args = build_parser().parse_args(["compare", "mxm"])
        assert args.mapping == "la"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "mxm"])
        assert args.mapping == "la"
        assert args.level == "decisions"
        assert args.events == ""

    def test_heatmap_defaults(self):
        args = build_parser().parse_args(["heatmap", "mxm"])
        assert args.metric == "mc"
        assert args.format == "ascii"

    def test_heatmap_rejects_unknown_metric(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["heatmap", "mxm", "--metric", "vibes"])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.apps == []
        assert args.fixture == ""
        assert not args.config_only
        assert args.json == ""

    def test_analyze_rejects_unknown_app_and_fixture(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "doom"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--fixture", "nonsense"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mxm" in out and "barnes" in out

    def test_properties(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "iteration sets" in out

    def test_run_small(self, capsys):
        assert main(["run", "mxm", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        header = next(
            line for line in out.splitlines() if line.startswith("benchmark")
        )
        assert header.split() == [
            "benchmark", "cycles", "net_latency", "avg_hops", "l1_hit_rate",
            "llc_miss_rate", "overhead_pct",
        ]
        assert "mxm[default]" in out

    def test_compare_small(self, capsys):
        assert main(
            ["compare", "mxm", "--scale", "0.25", "--llc", "private"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution time reduction" in out
        # The report also says where the optimized run's wall time went.
        assert "phase profile" in out
        assert "run manifest" in out
        assert "config_hash" in out

    def test_profile_small(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main([
            "profile", "mxm", "--scale", "0.25", "--events", str(events)
        ]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "sim.cold" in out and "sim.steady" in out
        assert "noc.packet_latency" in out
        assert "config_hash" in out
        from repro.obs import EventStream

        loaded = EventStream.load_jsonl(events.read_text())
        assert any(e["kind"] == "mapper.assign" for e in loaded)

    def test_profile_irregular_inspector_phases(self, capsys):
        assert main(["profile", "nbf", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "sim.inspect" in out and "sim.migrate" in out

    @pytest.mark.parametrize("metric", ["tile", "mc", "bank", "link"])
    def test_heatmap_ascii(self, capsys, metric):
        assert main([
            "heatmap", "mxm", "--scale", "0.25", "--metric", metric
        ]) == 0
        out = capsys.readouterr().out
        assert f"-- {metric}" in out
        assert "total" in out and "peak" in out

    def test_heatmap_all_csv(self, capsys):
        assert main([
            "heatmap", "mxm", "--scale", "0.25", "--metric", "all",
            "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        assert "node,x,y,value" in out
        assert "src,dst" in out  # the link metric's CSV header


class TestAnalyzeCommand:
    def test_clean_apps_exit_zero(self, capsys):
        assert main(["analyze", "mxm", "jacobi-3d"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "0 error(s)" in out

    def test_whole_suite_exits_zero(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyzed 21 subject(s)" in out

    def test_fixture_exits_nonzero(self, capsys):
        assert main(["analyze", "--fixture", "carried-stencil"]) == 1
        out = capsys.readouterr().out
        assert "PAR002" in out
        assert "ILLEGAL" in out

    def test_verbose_shows_certificates(self, capsys):
        assert main(["analyze", "mxm", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "PAR001" in out  # the positive certificate is info-tier

    def test_config_only(self, capsys):
        assert main(["analyze", "--config-only"]) == 0
        out = capsys.readouterr().out
        assert "analyzed 1 subject(s)" in out

    def test_json_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "diag.json"
        assert main([
            "analyze", "mxm", "--fixture", "carried-stencil",
            "--json", str(path),
        ]) == 1
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.analyze/1"
        assert payload["summary"]["ok"] is False
        assert len(payload["reports"]) == 2
        rules = {
            d["rule"] for r in payload["reports"] for d in r["diagnostics"]
        }
        assert "PAR002" in rules

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("PAR000", "CFG001", "AFF001", "LB001"):
            assert rule in out

    def test_run_gate_flag(self, capsys):
        assert main(["run", "mxm", "--scale", "0.25", "--gate"]) == 0
        out = capsys.readouterr().out
        assert "mxm[default]" in out


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults", "list"])
        assert args.action == "list"
        assert args.apps == []
        assert args.fault == []
        assert args.scale == 0.2

    def test_run_accepts_fault_flags(self):
        args = build_parser().parse_args([
            "run", "mxm", "--fault", "bank:1:offline",
            "--fault", "mc:0:throttle=0.5", "--no-fault-aware",
        ])
        assert args.fault == ["bank:1:offline", "mc:0:throttle=0.5"]
        assert args.no_fault_aware

    def test_heatmap_accepts_fault_flag(self):
        args = build_parser().parse_args([
            "heatmap", "mxm", "--fault", "link:0,0->1,0:down"
        ])
        assert args.fault == ["link:0,0->1,0:down"]

    def test_list_shows_grammar_without_plan(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "link:X1,Y1->X2,Y2:down" in out

    def test_list_renders_overlay(self, capsys):
        assert main([
            "faults", "list", "--fault", "bank:12:offline",
            "--fault", "mc:1:throttle=0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan hash:" in out
        assert "legend:" in out
        assert "bank:12:offline" in out

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["faults", "list", "--fault", "gpu:0:offline"]) == 2
        assert "invalid fault plan" in capsys.readouterr().err

    def test_inject_runs_and_reports(self, capsys):
        assert main([
            "run", "mxm", "nbf", "--mapping", "la", "--scale", "0.2",
            "--fault", "mc:1:throttle=0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "net_latency" in out

    @pytest.fixture
    def no_machine(self, monkeypatch):
        """Fail the test if any cell runs or any machine is built."""
        from repro.exec import executor
        from repro.sim.machine import Manycore

        def refuse(*args, **kwargs):
            pytest.fail("a machine was built for a plan the gate rejects")

        monkeypatch.setattr(executor, "execute_cell", refuse)
        monkeypatch.setattr(Manycore, "__init__", refuse)

    def test_inject_illegal_plan_rejected_by_gate(self, capsys, no_machine):
        code = main([
            "run", "mxm", "--fault", "bank:99:offline", "--scale", "0.2",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FLT001" in captured.out
        assert "rejected" in captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "mxm", "nbf"],
        ["heatmap", "mxm"],
    ], ids=["run-sweep", "heatmap"])
    def test_illegal_plan_refused_before_any_machine(
        self, capsys, no_machine, argv
    ):
        assert main(argv + ["--fault", "bank:99:offline"]) == 1
        captured = capsys.readouterr()
        assert "FLT001" in captured.out
        assert "rejected" in captured.err

    def test_run_with_fault_prints_plan(self, capsys):
        assert main([
            "run", "mxm", "--scale", "0.25", "--mapping", "la",
            "--fault", "mc:1:throttle=0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults: mc:1:throttle=0.5 (aware mapping)" in out
        assert "mxm[la]" in out


class TestRunOnePath:
    ARGV = ["run", "mxm", "--mapping", "la", "--scale", "0.25"]

    def test_execution_options_leave_the_row_unchanged(
        self, capsys, tmp_path
    ):
        """Workers, tracing and the result cache change how the cells
        run, never what they compute; one app also writes --json."""
        import json as json_mod

        def row(*extra):
            assert main(self.ARGV + list(extra)) == 0
            out = capsys.readouterr().out
            return next(
                line for line in out.splitlines() if line.startswith("mxm[la]")
            )

        plain = row()
        assert row("--workers", "2") == plain
        assert row("--trace", str(tmp_path / "run.trace.json")) == plain
        assert row("--cache-dir", str(tmp_path / "cache")) == plain
        summary = tmp_path / "summary.json"
        assert row("--json", str(summary)) == plain
        assert json_mod.loads(summary.read_text())["cells"] == 1


class TestObservabilityParser:
    def test_run_trace_flag(self):
        assert build_parser().parse_args(["run", "mxm"]).trace == ""
        # bare --trace defaults its filename
        args = build_parser().parse_args(["run", "mxm", "--trace"])
        assert args.trace == "run.trace.json"
        args = build_parser().parse_args(
            ["run", "mxm", "--trace", "x.json"]
        )
        assert args.trace == "x.json"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["run", "mxm", "--trace"])
        assert args.trace == "run.trace.json"
        assert args.workers == 1
        assert args.mapping == "default"
        assert not args.suite

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics", "mxm"])
        assert args.mapping == "la"
        assert args.out == ""

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "check"])
        assert args.tolerance == 0.10
        assert args.dir == ""
        assert args.json == ""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "vibes"])

    def test_profile_json_and_workers(self):
        args = build_parser().parse_args(["profile", "mxm", "--json"])
        assert args.json is True
        # profile runs in process only; sweeps take --workers through run.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "mxm", "--workers", "4"])


class TestTraceCommand:
    def test_run_with_trace_writes_valid_trace(self, capsys, tmp_path):
        import json as json_mod

        from repro.obs.tracing import validate_trace_events

        out = tmp_path / "run.trace.json"
        assert main(
            ["run", "mxm", "--scale", "0.25", "--trace", str(out)]
        ) == 0
        assert "trace:" in capsys.readouterr().out
        document = json_mod.loads(out.read_text())
        assert validate_trace_events(document) == []
        names = {e["name"] for e in document["traceEvents"]}
        assert {"sweep", "submit", "queue-wait", "attempt"} <= names

    def test_trace_command_reports_and_validates(self, capsys, tmp_path):
        out = tmp_path / "sweep.trace.json"
        assert main(
            ["run", "mxm", "--scale", "0.25", "--trace", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "trace id:" in text
        assert "schema: OK" in text
        assert out.exists()

    def test_trace_schema_violation_exits_1(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.obs import tracing

        monkeypatch.setattr(
            tracing, "validate_trace_events", lambda document: ["bad span"]
        )
        out = tmp_path / "bad.trace.json"
        assert main(
            ["run", "mxm", "--scale", "0.25", "--trace", str(out)]
        ) == 1
        assert "schema: bad span" in capsys.readouterr().out

    def test_trace_command_requires_apps(self, capsys):
        assert main(["run", "--trace"]) == 2
        assert "no applications" in capsys.readouterr().err

    def test_trace_reruns_share_span_ids(self, tmp_path):
        import json as json_mod

        def span_ids(path):
            document = json_mod.loads(path.read_text())
            return sorted(
                event["args"]["span_id"]
                for event in document["traceEvents"]
                if event["ph"] != "M"
            )

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "mxm", "--scale", "0.25",
                     "--trace", str(a)]) == 0
        assert main(["run", "mxm", "--scale", "0.25",
                     "--trace", str(b)]) == 0
        assert span_ids(a) == span_ids(b)


class TestMetricsCommand:
    def test_exposition_on_stdout(self, capsys):
        assert main(["metrics", "mxm", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_phase_seconds gauge" in out
        assert 'app="mxm"' in out

    def test_exposition_to_file(self, capsys, tmp_path):
        out = tmp_path / "metrics.txt"
        assert main(
            ["metrics", "mxm", "--scale", "0.25", "--out", str(out)]
        ) == 0
        assert "repro_phase_calls" in out.read_text()


class TestBenchCommand:
    def _record(self, history, values):
        from repro.obs.bench import append_bench

        for value in values:
            append_bench(
                history.parent / "BENCH_engine.json",
                {"benchmark": "engine", "speedup": value},
                metrics={
                    "speedup": {"value": value, "direction": "higher"},
                },
                history_dir=history,
            )

    def test_history_empty(self, capsys, tmp_path):
        assert main(["bench", "history", "--dir",
                     str(tmp_path / "none")]) == 0
        assert "no recorded bench history" in capsys.readouterr().out

    def test_history_lists_series(self, capsys, tmp_path):
        history = tmp_path / "history"
        self._record(history, [4.0, 4.2])
        assert main(["bench", "history", "--dir", str(history)]) == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "speedup=4.2" in out

    def test_check_ok(self, capsys, tmp_path):
        history = tmp_path / "history"
        self._record(history, [4.0, 4.1, 4.0])
        assert main(["bench", "check", "--dir", str(history)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_flags_regression(self, capsys, tmp_path):
        import json as json_mod

        history = tmp_path / "history"
        self._record(history, [4.0, 4.1, 2.0])
        report_path = tmp_path / "report.json"
        assert main(["bench", "check", "--dir", str(history),
                     "--json", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "REGRESSION:" in captured.err
        report = json_mod.loads(report_path.read_text())
        assert not report["ok"]
        assert report["regressions"][0]["series"] == "engine"

    def test_check_tolerance_widens_band(self, tmp_path):
        history = tmp_path / "history"
        self._record(history, [4.0, 4.1, 3.2])
        assert main(["bench", "check", "--dir", str(history)]) == 1
        assert main(["bench", "check", "--dir", str(history),
                     "--tolerance", "0.5"]) == 0


class TestProfileJson:
    def test_json_is_sorted_and_schemad(self, capsys):
        import json as json_mod

        assert main(["profile", "mxm", "--scale", "0.25", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json_mod.loads(out)
        assert payload["schema"] == "repro.profile/1"
        # stable key order: the document is its own sorted serialization
        assert out == json_mod.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["phases"]
        assert payload["stats"]["execution_cycles"] > 0


def documented_command_lines():
    """Every ``repro`` command line in CI, the README and docs/*.md,
    continuations joined and shell redirections, pipes and comments cut,
    as ``(where, argv)`` pairs."""
    sources = [
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]
    found = []
    for path in sources:
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines):
            match = re.search(r"python3? -m repro (.*)", line) or re.match(
                r"\s*(?:\$ )?repro (.*)", line
            )
            if match is None:
                continue
            command = match.group(1).split("`")[0].rstrip()
            # A command continues after a trailing backslash, and in a
            # YAML folded block on the "--option" lines that follow it.
            for follow in lines[number + 1:]:
                if not (command.endswith("\\")
                        or follow.strip().startswith("--")):
                    break
                command = command.rstrip("\\") + " " + follow.strip()
            lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if token[0] in "|<>;&":
                    break
                argv.append(token)
            found.append((f"{path.name}:{number + 1}", argv))
    return found


def test_documented_command_lines_parse(capsys):
    commands = documented_command_lines()
    assert len(commands) >= 60
    rejected = []
    for where, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            rejected.append(f"{where}: repro {' '.join(argv)}")
    assert not rejected, "\n".join(rejected)
