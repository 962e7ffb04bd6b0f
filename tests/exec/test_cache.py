"""Cache key sensitivity and corrupt-entry quarantine.

These tests never run the simulator: key derivation is pure, and the
cache stores whatever payloads it is given, so everything here works
with stubs.  The invariants certified:

* any change to the system config, the cell identity, the seed, or the
  schema/pipeline versions changes the cache key (=> a miss, never a
  stale replay);
* corrupt, truncated, wrong-schema, or wrong-key entries are quarantined
  and reported as misses -- a damaged cache can slow a sweep down, never
  poison or crash it.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.exec.cells as cells_mod
from repro.exec import CACHE_SCHEMA_VERSION, ResultCache, SweepCell
from repro.experiments import DEFAULT_SEED
from repro.sim.config import DEFAULT_CONFIG

STUB = {"kind": "stub", "value": 1.25}


def base_cell(**overrides):
    kwargs = dict(
        workload="mxm", config=DEFAULT_CONFIG, mapping="default", scale=0.5
    )
    kwargs.update(overrides)
    return SweepCell(**kwargs)


# ----------------------------------------------------------------------
# Key sensitivity
# ----------------------------------------------------------------------
def test_key_is_deterministic():
    assert base_cell().key() == base_cell().key()


@pytest.mark.parametrize(
    "field,value",
    [
        ("l1_size_bytes", 4 * 1024),
        ("l2_size_bytes", 32 * 1024),
        ("page_bytes", 8192),
        ("mesh_width", 8),
        ("router_delay", 5),
    ],
)
def test_any_config_field_changes_the_key(field, value):
    mutated = dataclasses.replace(DEFAULT_CONFIG, **{field: value})
    assert base_cell().key() != base_cell(config=mutated).key()


@pytest.mark.parametrize(
    "override",
    [
        {"workload": "nbf"},
        {"mapping": "la"},
        {"scale": 0.25},
        {"trips": 3},
        {"cme_accuracy": 1.0},
        {"seed": 12345},
        {"collect_obs": True},
        {"workloads": ("mxm", "nbf")},
        {
            "workload": "tests.exec.fixtures:build_crasher",
            "workload_args": {"inner": "mxm"},
        },
    ],
)
def test_any_identity_field_changes_the_key(override):
    assert base_cell().key() != base_cell(**override).key()


def test_schema_and_pipeline_versions_are_folded_in(monkeypatch):
    before = base_cell().key()
    monkeypatch.setattr(cells_mod, "CACHE_SCHEMA_VERSION", 9999)
    bumped_schema = base_cell().key()
    monkeypatch.setattr(cells_mod, "PIPELINE_VERSION", 9999)
    bumped_both = base_cell().key()
    assert len({before, bumped_schema, bumped_both}) == 3


def test_derived_seed_is_stable_and_content_addressed():
    # An explicit seed wins...
    assert base_cell(seed=7).seed == 7
    # ...and every other cell runs on the harness seed, whatever its
    # identity.
    assert base_cell().seed == base_cell(mapping="la").seed == DEFAULT_SEED


# ----------------------------------------------------------------------
# Storage round-trip and quarantine
# ----------------------------------------------------------------------
def test_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = base_cell().key()
    assert cache.get(key) is None
    cache.put(key, STUB)
    assert cache.get(key) == STUB
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1


@pytest.mark.parametrize(
    "corruption",
    ["truncate", "not-json", "not-an-object", "wrong-schema", "wrong-key",
     "payload-not-dict"],
)
def test_damaged_entries_are_quarantined(tmp_path, corruption):
    cache = ResultCache(tmp_path)
    key = base_cell().key()
    cache.put(key, STUB)
    path = cache.entry_path(key)

    if corruption == "truncate":
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    elif corruption == "not-json":
        path.write_text("definitely } not { json")
    elif corruption == "not-an-object":
        path.write_text(json.dumps([1, 2, 3]))
    elif corruption == "wrong-schema":
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
    elif corruption == "wrong-key":
        entry = json.loads(path.read_text())
        entry["key"] = "0" * len(key)
        path.write_text(json.dumps(entry))
    elif corruption == "payload-not-dict":
        entry = json.loads(path.read_text())
        entry["payload"] = "scalar"
        path.write_text(json.dumps(entry))

    assert cache.get(key) is None, corruption
    assert not path.exists(), "damaged entry must be moved out of the way"
    assert (cache.quarantine_dir / path.name).exists()
    # The miss is recoverable: a fresh put makes the key readable again.
    cache.put(key, STUB)
    assert cache.get(key) == STUB


def test_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    keys = [base_cell(seed=s).key() for s in range(4)]
    for key in keys:
        cache.put(key, STUB)
    cache.entry_path(keys[0]).write_text("junk")
    assert cache.get(keys[0]) is None  # quarantines

    stats = cache.stats()
    assert stats["entries"] == len(keys) - 1
    assert stats["quarantined"] == 1
    assert stats["schema"] == CACHE_SCHEMA_VERSION
    assert stats["bytes"] > 0
    assert stats["session"]["stores"] == len(keys)

    removed = cache.clear()
    assert removed == len(keys)  # 3 live entries + 1 quarantined
    assert cache.stats()["entries"] == 0
    assert cache.stats()["quarantined"] == 0


def test_put_is_atomic_no_temp_litter(tmp_path):
    cache = ResultCache(tmp_path)
    key = base_cell().key()
    cache.put(key, STUB)
    shard = cache.entry_path(key).parent
    assert [p.name for p in shard.iterdir()] == [f"{key}.json"]
