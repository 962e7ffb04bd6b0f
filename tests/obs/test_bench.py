"""The perf-trajectory envelope and regression watch.

Everything runs against tmp_path: the real ``BENCH_*.json`` files and
``benchmarks/history/`` are never touched by the test suite.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    append_bench,
    bench_envelope,
    check_history,
    history_name,
    load_history,
)

SPEEDUP = {"speedup": {"value": 4.5, "direction": "higher"}}


class TestEnvelope:
    def test_envelope_carries_provenance(self):
        env = bench_envelope({"benchmark": "engine", "speedup": 4.5}, SPEEDUP)
        assert env["schema"] == BENCH_SCHEMA
        assert env["benchmark"] == "engine"
        assert env["record"] == {"benchmark": "engine", "speedup": 4.5}
        for key in ("created_unix", "git_sha", "host", "python", "version"):
            assert env[key]

    def test_explicit_metrics_win(self):
        env = bench_envelope(
            {"speedup": 4.5},
            metrics={"ips": {"value": 100.0, "direction": "higher"}},
        )
        assert set(env["metrics"]) == {"ips"}

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            bench_envelope(
                {}, metrics={"x": {"value": 1.0, "direction": "sideways"}}
            )


class TestAppend:
    def test_history_name(self):
        assert history_name("/x/BENCH_engine.json") == "engine"
        assert history_name("BENCH_parallel.json") == "parallel"
        assert history_name("other.json") == "other"

    def test_append_writes_bench_and_history(self, tmp_path):
        bench = tmp_path / "BENCH_engine.json"
        history = tmp_path / "history"
        for speedup in (4.0, 4.4):
            append_bench(
                bench,
                {"benchmark": "engine", "speedup": speedup},
                metrics={
                    "speedup": {"value": speedup, "direction": "higher"},
                },
                history_dir=history,
            )
        entries = json.loads(bench.read_text())
        assert len(entries) == 2
        assert all(e["schema"] == BENCH_SCHEMA for e in entries)
        lines = (history / "engine.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["metrics"]["speedup"]["value"] == 4.4

    def test_append_serializes_canonically(self, tmp_path):
        """Regression (DET102): the BENCH file must be byte-stable.

        ``append_bench`` used to write the aggregate file without
        ``sort_keys=True`` -- insertion-order drift in the envelope dict
        would churn the diff CI reviews.  The bytes must now equal the
        canonical re-serialization of the parsed content.
        """
        bench = tmp_path / "BENCH_engine.json"
        append_bench(
            bench,
            {"benchmark": "engine", "speedup": 4.0},
            metrics={"speedup": {"value": 4.0, "direction": "higher"}},
            history_dir=tmp_path / "history",
        )
        raw = bench.read_text()
        canonical = json.dumps(json.loads(raw), indent=2, sort_keys=True)
        assert raw == canonical + "\n"

    def test_load_history_skips_corrupt_lines(self, tmp_path):
        history = tmp_path / "history"
        history.mkdir()
        (history / "engine.jsonl").write_text(
            json.dumps(bench_envelope({"speedup": 4.0}, SPEEDUP))
            + "\n{not json\n"
            + json.dumps({"schema": "legacy", "metrics": SPEEDUP})
            + "\n"
            + json.dumps(bench_envelope({"speedup": 4.1}, SPEEDUP))
            + "\n"
        )
        series = load_history(history)
        assert len(series["engine"]) == 2

    def test_load_history_missing_dir(self, tmp_path):
        assert load_history(tmp_path / "nope") == {}


def record_points(history, name, values, direction="higher"):
    for value in values:
        append_bench(
            history.parent / f"BENCH_{name}.json",
            {"benchmark": name, "metric": value},
            metrics={"metric": {"value": value, "direction": direction}},
            history_dir=history,
        )


class TestCheck:
    def test_stable_trajectory_is_ok(self, tmp_path):
        history = tmp_path / "history"
        record_points(history, "engine", [4.0, 4.1, 3.9, 4.0])
        report = check_history(history)
        assert report["ok"]
        assert report["regressions"] == []
        assert report["series"]["engine"]["metric"]["regressed"] is False

    def test_higher_is_better_regression(self, tmp_path):
        history = tmp_path / "history"
        record_points(history, "engine", [4.0, 4.1, 3.0])
        report = check_history(history, tolerance=0.10)
        assert not report["ok"]
        (regression,) = report["regressions"]
        assert regression["series"] == "engine"
        assert regression["metric"] == "metric"

    def test_lower_is_better_regression(self, tmp_path):
        history = tmp_path / "history"
        record_points(
            history, "telemetry", [0.010, 0.011, 0.020], direction="lower"
        )
        assert not check_history(history, tolerance=0.10)["ok"]

    def test_improvement_is_never_flagged(self, tmp_path):
        history = tmp_path / "history"
        record_points(history, "engine", [4.0, 4.0, 9.0])
        assert check_history(history, tolerance=0.10)["ok"]

    def test_tolerance_widens_the_noise_band(self, tmp_path):
        history = tmp_path / "history"
        record_points(history, "engine", [4.0, 4.0, 3.2])
        assert not check_history(history, tolerance=0.10)["ok"]
        assert check_history(history, tolerance=0.50)["ok"]

    def test_single_point_has_no_baseline(self, tmp_path):
        history = tmp_path / "history"
        record_points(history, "engine", [4.0])
        verdict = check_history(history)["series"]["engine"]["metric"]
        assert verdict["baseline"] is None
        assert verdict["regressed"] is False

    def test_near_zero_baseline_does_not_divide_by_zero(self, tmp_path):
        history = tmp_path / "history"
        record_points(
            history, "telemetry", [0.0, 0.0, 0.0], direction="lower"
        )
        assert check_history(history)["ok"]

    def test_empty_history_is_ok(self, tmp_path):
        report = check_history(tmp_path / "none")
        assert report["ok"]
        assert report["series"] == {}
