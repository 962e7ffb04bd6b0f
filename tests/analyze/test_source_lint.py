"""The source linter's rule catalogue, fixture by fixture.

Every rule id gets a paired bad/good fixture under
``source_fixtures/``; the manifest below zones the fixtures by stem so
each rule fires exactly where intended.  Also covered: suppression
annotations (reason mandatory), the baseline round-trip, fingerprint
line-drift stability, and the CLI surface (``repro lint`` and the
``repro bench check`` verdict line).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze.source import (
    Baseline,
    BaselineEntry,
    ZoneManifest,
    build_index,
    build_lint_report,
    lint_paths,
    module_name_for,
    source_rules,
)
from repro.analyze.source.rules import SOURCE_RULE_IDS
from repro.cli import main

FIXTURES = Path(__file__).parent / "source_fixtures"

MANIFEST = ZoneManifest([
    ("det101_*", ("id",)),
    ("det102_*", ("serialize",)),
    ("det103_*", ("id", "serialize", "report")),
    ("exc101_*", ("retry",)),
    ("suppressed", ("id",)),
    # pkl101_* / mut101_* need no zone: those rules apply everywhere.
])


def lint_fixture(name: str, baseline: Baseline = None):
    return lint_paths(
        [FIXTURES / f"{name}.py"], manifest=MANIFEST, baseline=baseline
    )


def active_rules(report) -> set:
    return {f.rule for f in report.active}


class TestRuleCatalogue:
    def test_rule_ids_are_registered_and_sorted(self):
        assert [cls.rule_id for cls in source_rules()] == list(SOURCE_RULE_IDS)

    @pytest.mark.parametrize("rule_id", SOURCE_RULE_IDS)
    def test_bad_fixture_trips_its_rule(self, rule_id):
        report = lint_fixture(f"{rule_id.lower()}_bad")
        assert rule_id in active_rules(report)
        assert report.exit_code == 1

    @pytest.mark.parametrize("rule_id", SOURCE_RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        report = lint_fixture(f"{rule_id.lower()}_good")
        assert rule_id not in active_rules(report)

    def test_findings_carry_location_evidence(self):
        report = lint_fixture("det101_bad")
        finding = report.active[0]
        assert finding.path.endswith("det101_bad.py")
        assert finding.line > 0
        assert finding.module == "det101_bad"
        assert finding.symbol != ""
        assert finding.fingerprint


class TestDet101:
    def test_wall_clock_pid_and_uuid_flagged(self):
        report = lint_fixture("det101_bad")
        calls = {f.details.get("call") for f in report.active}
        assert {"time.time", "os.getpid", "uuid.uuid4", "random.random"} <= calls

    def test_seeded_generators_are_sanctioned(self):
        # random.Random(seed) in the good fixture must not fire.
        assert not lint_fixture("det101_good").findings


class TestDet103:
    def test_all_three_site_kinds_fire(self):
        report = lint_fixture("det103_bad")
        contexts = {f.details.get("context") for f in report.active}
        assert {"join()", "comprehension", "for-loop"} <= contexts

    def test_setcomp_is_exempt(self):
        assert not lint_fixture("det103_good").findings


class TestMut101:
    def test_taint_follows_direct_callees(self):
        # ``work`` is submitted; the append lives in ``record`` which
        # ``work`` calls -- the one-level call graph must reach it.
        report = lint_fixture("mut101_bad")
        names = {f.details.get("global_name") for f in report.active}
        assert names == {"RESULTS", "COUNTS"}

    def test_parent_side_accumulation_is_fine(self):
        assert not lint_fixture("mut101_good").findings


class TestSuppression:
    def test_annotation_with_reason_suppresses(self):
        report = lint_fixture("suppressed")
        suppressed = report.suppressed
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "stamped"
        assert "suppression" in suppressed[0].suppress_reason

    def test_annotation_without_reason_does_not(self):
        report = lint_fixture("suppressed")
        assert len(report.active) == 1
        assert report.active[0].symbol == "unjustified"
        assert report.exit_code == 1


class TestBaseline:
    def test_round_trip_neutralizes_findings(self, tmp_path):
        dirty = lint_fixture("det101_bad")
        assert dirty.active
        path = tmp_path / "baseline.json"
        dirty.to_baseline().save(path)

        loaded = Baseline.load(path)
        assert len(loaded) == len(dirty.active)
        clean = lint_fixture("det101_bad", baseline=loaded)
        assert not clean.active
        assert len(clean.baselined) == len(dirty.active)
        assert clean.exit_code == 0

    def test_stale_entries_are_reported(self, tmp_path):
        ghost = BaselineEntry(
            fingerprint="deadbeefdeadbeef", rule="DET101",
            module="gone", symbol="fn",
        )
        baseline = Baseline([ghost])
        report = lint_fixture("det101_good", baseline=baseline)
        assert report.stale_baseline == [ghost.to_dict()]
        assert "stale baseline" in report.render_text()

    def test_load_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert len(baseline) == 0

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/9", "entries": []}))
        with pytest.raises(ValueError, match="unknown baseline schema"):
            Baseline.load(path)

    def test_fingerprint_survives_line_drift(self, tmp_path):
        """The fingerprint keys on content, not line numbers."""
        source = FIXTURES / "det101_bad.py"
        shifted = tmp_path / "det101_bad.py"
        shifted.write_text("\n\n\n" + source.read_text())
        original = lint_paths([source], manifest=MANIFEST)
        drifted = lint_paths([shifted], manifest=MANIFEST)
        assert (
            {f.fingerprint for f in original.active}
            == {f.fingerprint for f in drifted.active}
        )
        assert (
            {f.line for f in original.active}
            != {f.line for f in drifted.active}
        )


class TestNegativeControl:
    def test_seeded_violation_fails_the_lint(self, tmp_path):
        """The CI negative control in miniature: a planted wall-clock
        call in an id zone must flip the verdict to FAIL/exit 1."""
        victim = tmp_path / "planted.py"
        victim.write_text(
            "import time\n\n\ndef key() -> float:\n    return time.time()\n"
        )
        manifest = ZoneManifest([("planted", ("id",))])
        report = lint_paths([victim], manifest=manifest)
        assert report.exit_code == 1
        assert active_rules(report) == {"DET101"}

    def test_syntax_error_fails_the_lint(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        report = lint_paths([broken], manifest=MANIFEST)
        assert report.parse_errors
        assert report.exit_code == 1


class TestZoneManifest:
    def test_matches_accumulate(self):
        manifest = ZoneManifest([
            ("repro.obs.*", ("serialize",)),
            ("repro.obs.tracing", ("id",)),
        ])
        assert manifest.zones_of("repro.obs.tracing") == {"id", "serialize"}
        assert manifest.zones_of("repro.exec.cells") == frozenset()

    def test_unknown_zone_rejected(self):
        with pytest.raises(ValueError, match="unknown zone"):
            ZoneManifest([("x", ("bogus",))])

    def test_dict_round_trip(self):
        manifest = ZoneManifest([("a.*", ("id",)), ("b", ("report",))])
        rebuilt = ZoneManifest.from_dict(manifest.to_dict())
        assert rebuilt.to_dict() == manifest.to_dict()

    def test_module_name_for_package_files(self):
        import repro.exec.cells as cells

        assert module_name_for(Path(cells.__file__)) == "repro.exec.cells"
        assert module_name_for(FIXTURES / "det101_bad.py") == "det101_bad"


class TestCli:
    def test_lint_paths_exit_codes(self, tmp_path, capsys):
        bad = str(FIXTURES / "pkl101_bad.py")
        good = str(FIXTURES / "pkl101_good.py")
        assert main(["lint", "--paths", bad]) == 1
        assert main(["lint", "--paths", good]) == 0
        out = capsys.readouterr().out
        assert "PKL101" in out
        assert "FAIL" in out and "OK" in out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in SOURCE_RULE_IDS:
            assert rule_id in out

    def test_lint_json_artifact(self, tmp_path):
        artifact = tmp_path / "lint.json"
        code = main([
            "lint", "--paths", str(FIXTURES / "det102_bad.py"),
            "--zone", "serialize", "--json", str(artifact),
        ])
        assert code == 1
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "repro.lint/1"
        assert payload["summary"]["ok"] is False
        assert any(f["rule"] == "DET102" for f in payload["findings"])

    def test_lint_update_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        code = main([
            "lint", "--paths", str(FIXTURES / "det101_bad.py"),
            "--baseline", str(baseline), "--update-baseline",
        ])
        assert code == 0
        assert json.loads(baseline.read_text())["schema"] == (
            "repro.lint-baseline/1"
        )
        # Grandfathered: the same lint now passes against the baseline.
        assert main([
            "lint", "--paths", str(FIXTURES / "det101_bad.py"),
            "--baseline", str(baseline),
        ]) == 0

    def test_bench_check_reads_lint_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        artifact = tmp_path / "repro_lint.json"
        main([
            "lint", "--paths", str(FIXTURES / "det101_good.py"),
            "--json", str(artifact),
        ])
        capsys.readouterr()
        report_json = tmp_path / "check.json"
        code = main([
            "bench", "check", "--dir", str(tmp_path / "empty-history"),
            "--lint-report", str(artifact), "--json", str(report_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lint: OK" in out
        payload = json.loads(report_json.read_text())
        assert payload["lint"]["summary"]["ok"] is True

    def test_lint_verdict_names_a_bad_artifact(self, tmp_path):
        from repro.analyze.source.report import load_lint_verdict

        other = tmp_path / "diagnostics.json"
        other.write_text('{"schema": "repro.analyze/1"}')
        with pytest.raises(ValueError, match="not a repro.lint/1 artifact"):
            load_lint_verdict(other)
        with pytest.raises(ValueError, match="lint report not found"):
            load_lint_verdict(tmp_path / "missing.json")

    def test_bench_check_without_artifact_stays_silent(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "check", "--dir", str(tmp_path / "none")])
        assert code == 0
        assert "lint:" not in capsys.readouterr().out


class TestCrashResilience:
    def test_crashing_rule_becomes_ana999(self, monkeypatch):
        from repro.analyze.source import rules as rules_mod

        def boom(self, module):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(
            rules_mod.WallClockInIdentityRule, "check_module", boom
        )
        index = build_index(
            [FIXTURES / "det101_bad.py"], manifest=MANIFEST
        )
        report = build_lint_report(index)
        assert any(f.rule == "ANA999" for f in report.findings)
        assert report.exit_code == 1
