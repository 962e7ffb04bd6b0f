"""Unit tests for the telemetry hub: counters, histograms, phase timers."""

import numpy as np
import pytest

from repro.obs import Histogram, Telemetry


class TestCounters:
    def test_count_accumulates(self):
        tele = Telemetry()
        tele.count("a")
        tele.count("a", 4)
        tele.count("b", 2)
        assert tele.counters == {"a": 5, "b": 2}

    def test_disabled_hub_ignores_counts(self):
        tele = Telemetry.disabled()
        tele.count("a", 10)
        assert tele.counters == {}
        assert not tele.enabled
        assert not tele.events.enabled


class TestHistogram:
    def test_scalar_and_bulk_recording_agree(self):
        a, b = Histogram("a"), Histogram("b")
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        for v in values:
            a.record(v)
        b.record_many(np.array(values))
        assert a == b
        assert a.total == len(values)
        assert a.sum == sum(values)
        assert a.mean == pytest.approx(sum(values) / len(values))
        assert (a.min, a.max) == (1, 9)

    def test_percentiles_nearest_rank(self):
        h = Histogram()
        h.record_many(np.arange(1, 101))  # 1..100, one each
        assert h.percentile(50) == 50
        assert h.percentile(90) == 90
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100
        assert h.percentile(0) == 1

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.total == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0
        assert h.as_dict()["total"] == 0

    def test_record_with_count(self):
        h = Histogram()
        h.record(7, count=3)
        assert h.items() == [(7, 3)]

    def test_record_many_empty_array_is_a_no_op(self):
        h = Histogram()
        h.record_many(np.array([]))
        assert h.total == 0
        h.record(5)
        h.record_many(np.array([], dtype=np.int64))
        assert h.items() == [(5, 1)]

    def test_record_many_empty_list_is_a_no_op(self):
        h = Histogram()
        h.record_many([])
        assert h.total == 0

    def test_hub_reuses_named_histogram(self):
        tele = Telemetry()
        assert tele.histogram("x") is tele.histogram("x")


class TestPhases:
    def test_nested_phases_use_dotted_paths(self):
        tele = Telemetry()
        with tele.phase("outer"):
            with tele.phase("inner"):
                pass
            with tele.phase("inner"):
                pass
        assert set(tele.phases) == {"outer", "outer.inner"}
        assert tele.phases["outer"].calls == 1
        assert tele.phases["outer.inner"].calls == 2
        assert tele.phases["outer"].depth == 1
        assert tele.phases["outer.inner"].depth == 2

    def test_phase_rows_share_uses_depth_not_dots(self):
        """Top-level phases may themselves contain dots ("sim.cold")."""
        tele = Telemetry()
        with tele.phase("sim.cold"):
            pass
        with tele.phase("sim.steady"):
            pass
        rows = tele.phase_rows()
        assert {row[0] for row in rows} == {"sim.cold", "sim.steady"}
        assert sum(row[3] for row in rows) == pytest.approx(100.0, abs=0.5)

    def test_disabled_hub_records_no_phases(self):
        tele = Telemetry.disabled()
        with tele.phase("p"):
            pass
        assert tele.phases == {}

    def test_phase_exception_still_recorded(self):
        tele = Telemetry()
        with pytest.raises(RuntimeError):
            with tele.phase("boom"):
                raise RuntimeError("x")
        assert tele.phases["boom"].calls == 1
        assert tele._phase_stack == []


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        import json

        tele = Telemetry()
        tele.count("c", 2)
        tele.histogram("h").record(5)
        with tele.phase("p"):
            pass
        tele.ensure_spatial(4, 2)
        snap = tele.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["total"] == 1
        assert "p" in snap["phases"]
        assert snap["spatial"]["tile_accesses"] == [0, 0, 0, 0]

    def test_ensure_spatial_rejects_shape_change(self):
        tele = Telemetry()
        tele.ensure_spatial(4, 2)
        with pytest.raises(ValueError):
            tele.ensure_spatial(8, 2)
