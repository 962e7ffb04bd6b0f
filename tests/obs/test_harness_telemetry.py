"""Integration: the harness wires telemetry through the whole pipeline."""

import dataclasses

from repro.experiments.harness import compare, run_workload
from repro.obs import EventStream, Telemetry
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import build_workload

SCALE = 0.25


def _run(app="mxm", mapping="la", telemetry=None, **kwargs):
    return run_workload(
        build_workload(app), DEFAULT_CONFIG, mapping=mapping, scale=SCALE,
        telemetry=telemetry, **kwargs,
    )


class TestPhasesAndManifest:
    def test_regular_run_records_phases(self):
        tele = Telemetry()
        _run("mxm", "la", tele)
        phases = tele.phase_seconds()
        for expected in ("setup", "compile", "sim.cold", "sim.steady"):
            assert expected in phases, phases
        assert "compile.analyze" in phases
        assert "compile.assign" in phases

    def test_irregular_run_records_inspector_phases(self):
        tele = Telemetry()
        _run("nbf", "la", tele)
        phases = tele.phase_seconds()
        for expected in ("sim.inspect", "compile", "sim.migrate",
                         "sim.steady"):
            assert expected in phases, phases

    def test_manifest_attached_to_stats_and_hub(self):
        tele = Telemetry()
        result = _run("mxm", "la", tele, seed=23)
        manifest = result.stats.manifest
        assert manifest is tele.manifest
        assert manifest["workload"] == "mxm"
        assert manifest["mapping"] == "la"
        assert manifest["seed"] == 23
        assert manifest["scale"] == SCALE
        assert manifest["wall_seconds"] > 0
        assert set(manifest["phase_seconds"]) == set(tele.phase_seconds())

    def test_no_telemetry_leaves_manifest_unset(self):
        result = _run("mxm", "default")
        assert result.stats.manifest is None


class TestSpatialThroughHarness:
    def test_spatial_collected_and_reconciled(self):
        tele = Telemetry()
        result = _run("mxm", "la", tele)
        spatial = tele.spatial
        assert spatial is not None
        assert int(spatial.tile_accesses.sum()) == result.stats.l1_accesses
        assert int(spatial.bank_touches.sum()) == result.stats.l1_accesses
        assert int(spatial.mc_requests.sum()) == result.stats.dram_accesses
        assert spatial.reconcile(result.stats) == []
        assert spatial.link_flits  # the NoC really was exercised

    def test_telemetry_does_not_change_results(self):
        plain = _run("mxm", "la")
        with_tele = _run("mxm", "la", Telemetry())
        assert dataclasses.asdict(plain.stats) == dataclasses.asdict(
            with_tele.stats
        )


class TestEventsThroughHarness:
    def test_mapper_decisions_recorded(self):
        tele = Telemetry()
        result = _run("mxm", "la", tele)
        assigns = tele.events.of_kind("mapper.assign")
        summaries = tele.events.of_kind("mapper.summary")
        assert assigns
        assert summaries
        # One assign event per (nest, set) the compiler scheduled.
        scheduled = sum(
            len(s) for s in result.compiled.schedules.values()
        )
        assert len(assigns) == scheduled
        for event in assigns:
            assert event["eta"] >= 0.0
            assert 0 <= event["core"] < DEFAULT_CONFIG.num_cores

    def test_events_off_records_nothing(self):
        tele = Telemetry(events=EventStream(level="off"))
        _run("mxm", "la", tele)
        assert len(tele.events) == 0
        # ... but phases and spatial still work.
        assert tele.phase_seconds()
        assert tele.spatial is not None


class TestCompare:
    def test_compare_instruments_optimized_run(self):
        tele = Telemetry(events=EventStream(level="off"))
        comparison, base, opt = compare(
            build_workload("mxm"), DEFAULT_CONFIG, optimized="la",
            scale=SCALE, telemetry=tele,
        )
        assert opt.stats.manifest is not None
        assert opt.stats.manifest["mapping"] == "la"
        assert base.stats.manifest is None
        assert comparison.name == "mxm"
