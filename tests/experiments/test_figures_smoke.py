"""Smoke tests of every figure function (tiny scale, tiny app set).

These verify plumbing -- keys, structure, value ranges -- not performance
claims; the benchmarks/ targets are the real reproductions.
"""

import pytest

from repro.experiments import figures

APPS = ["mxm"]
SCALE = 0.3


def test_figure02_structure():
    out = figures.figure02_ideal_network(apps=APPS, scale=SCALE)
    assert set(out) == {"mxm"}
    assert set(out["mxm"]) == {"private", "shared"}


def test_figure07_structure():
    out = figures.figure07_private(apps=APPS, scale=SCALE)
    row = out["mxm"]
    assert {"mai_error", "net_reduction", "time_reduction",
            "overhead", "moved_fraction"} <= set(row)
    assert 0.0 <= row["mai_error"] <= 0.5


def test_figure08_structure():
    out = figures.figure08_shared(apps=APPS, scale=SCALE)
    assert "cai_error" in out["mxm"]


def test_summarize_geomeans():
    out = figures.summarize({"a": {"m": 4.0}, "b": {"m": 16.0}})
    assert out["m"] == pytest.approx(8.0)


def test_figure09_structure():
    out = figures.figure09_sensitivity(apps=APPS, scale=SCALE)
    assert "Default Parameters" in out and "8x8 Network" in out
    assert set(out["Default Parameters"]) == {"private", "shared"}


def test_figure10_regions_structure():
    out = figures.figure10_regions(
        apps=APPS, scale=SCALE, region_counts=(4, 36)
    )
    assert set(out["private"]) == {4, 36}


def test_figure10_sets_structure():
    out = figures.figure10_iteration_sets(
        apps=APPS, scale=SCALE, fractions=(0.005, 0.02)
    )
    assert set(out["shared"]) == {0.005, 0.02}


def test_figure11_structure():
    out = figures.figure11_distribution(apps=APPS, scale=SCALE)
    assert len(out) == 4
    assert all(set(v) == {"private", "shared"} for v in out.values())


def test_figure12_structure():
    out = figures.figure12_ddr4(apps=APPS, scale=SCALE)
    assert set(out["mxm"]) == {"private", "shared"}


def test_figure13_structure():
    out = figures.figure13_layout(apps=["mxm"], scale=SCALE)
    assert set(out["mxm"]["private"]) == {"LA", "DO", "LA+DO"}


def test_figure14_structure():
    out = figures.figure14_hardware(apps=APPS, scale=SCALE)
    assert set(out["mxm"]["shared"]) == {"compiler", "hardware"}


def test_figure15_structure():
    out = figures.figure15_perfect_estimation(apps=APPS, scale=SCALE)
    assert set(out["mxm"]["private"]) == {"realistic", "perfect"}


def test_figure16_structure():
    out = figures.figure16_knl_modes(apps=APPS, scale=SCALE)
    assert set(out) == {
        "Original quadrant", "Original SNC-4", "Optimized all-to-all",
        "Optimized quadrant", "Optimized SNC-4",
    }


def test_figure17_structure():
    out = figures.figure17_knl_scaling(
        apps=["mxm"], base_scale=0.25, factors=(1.0, 2.0)
    )
    assert set(out["mxm"]) == {1.0, 2.0}


def test_table03_structure():
    rows = figures.table03_properties(apps=APPS, scale=SCALE)
    assert rows[0]["benchmark"] == "mxm"
    assert rows[0]["iteration_sets"] > 0
