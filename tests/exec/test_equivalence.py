"""The headline guarantee: sharded == serial, field for field.

One serial reference sweep (``workers=1``, no cache) anchors the module;
every other execution strategy -- a 4-worker pool, a shuffled shard
order, a cold cache-populating run, and a pure cache replay -- must
reproduce its payloads ``==``-identical, including the observability
extras (spatial accumulators, latency histograms) that ride along when
``collect_obs`` is set.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.exec import SweepCell, run_sweep, sweep_matrix, sweep_table
from repro.experiments import run_workload
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import build_workload

APPS = ("mxm", "nbf")
MAPPINGS = ("default", "la")
SCALE = 0.2


def _cells():
    return sweep_matrix(
        APPS, DEFAULT_CONFIG, mappings=MAPPINGS, scales=(SCALE,),
        collect_obs=True,
    )


@pytest.fixture(scope="module")
def reference():
    """The serial ground truth every strategy is compared against."""
    return run_sweep(_cells(), workers=1)


def test_reference_shape(reference):
    assert len(reference.results) == len(APPS) * len(MAPPINGS)
    for result in reference.results:
        assert result.payload["kind"] == "single"
        assert result.attempts == 1
        assert not result.from_cache
        assert not result.in_process


def test_pool_matches_serial(reference):
    parallel = run_sweep(_cells(), workers=4)
    assert parallel.payloads() == reference.payloads()
    assert sweep_table(parallel) == sweep_table(reference)


def test_shard_order_is_irrelevant(reference):
    shuffled = _cells()
    random.Random(7).shuffle(shuffled)
    result = run_sweep(shuffled, workers=4)
    assert result.payloads() == reference.payloads()
    # The rendered table sorts rows, so even the human-facing report is
    # byte-identical under resharding.
    assert sweep_table(result) == sweep_table(reference)


def test_unseeded_cells_match_run_workload_defaults(reference):
    """A cell built without a seed runs on the harness seed, so it
    computes what ``run_workload`` computes at its defaults."""
    for result in reference.results:
        cell = result.cell
        expected = run_workload(
            build_workload(cell.workload), cell.config,
            mapping=cell.mapping, scale=cell.scale,
        )
        assert result.payload["stats"] == dataclasses.asdict(expected.stats)


def test_cache_cold_then_warm_replay(reference, tmp_path):
    cache_dir = str(tmp_path / "cache")

    cold = run_sweep(_cells(), workers=4, cache_dir=cache_dir)
    assert cold.payloads() == reference.payloads()
    assert cold.cache_hits == 0
    assert cold.cache_misses == len(reference.results)

    warm = run_sweep(_cells(), workers=4, cache_dir=cache_dir)
    assert warm.payloads() == reference.payloads()
    assert warm.hit_rate == 1.0
    assert all(r.from_cache for r in warm.results)
    assert sweep_table(warm) == sweep_table(reference)


def test_obs_payloads_survive_the_roundtrip(reference, tmp_path):
    """Spatial heatmaps and histograms replay identically from cache."""
    for result in reference.results:
        obs = result.payload["obs"]
        assert isinstance(obs["histograms"], dict)
        assert obs["histograms"], "collect_obs cells must carry histograms"

    cache_dir = str(tmp_path / "cache")
    run_sweep(_cells(), workers=1, cache_dir=cache_dir)
    warm = run_sweep(_cells(), workers=1, cache_dir=cache_dir)
    for fresh, replayed in zip(reference.results, warm.results):
        assert replayed.from_cache
        assert replayed.payload["obs"] == fresh.payload["obs"]


def test_duplicate_cells_computed_once():
    cell = SweepCell(
        workload="mxm", config=DEFAULT_CONFIG, scale=SCALE,
    )
    result = run_sweep([cell, cell, cell], workers=2)
    assert len(result.results) == 3
    assert result.summary()["unique_cells"] == 1
    first = result.results[0].payload
    assert all(r.payload == first for r in result.results)


def test_multiprog_cells_match_serial():
    cell = SweepCell(
        workload="bundle",
        config=DEFAULT_CONFIG,
        workloads=("mxm", "minighost"),
        mapping="la",
        scale=SCALE,
    )
    serial = run_sweep([cell], workers=1)
    pooled = run_sweep([cell], workers=2)
    assert serial.payloads() == pooled.payloads()
    payload = serial.results[0].payload
    assert payload["kind"] == "multiprog"
    assert payload["makespan"] > 0
