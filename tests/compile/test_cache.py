"""Unit tests of :class:`repro.compile.CompileCache` itself.

The behavioural (bit-transparency) guarantees live in
``test_transparency.py``; this file pins the cache mechanics: LRU
eviction, the disk envelope, counter bookkeeping, corruption quarantine,
and the process-global accessors.
"""

from __future__ import annotations

import json

import pytest

from repro.compile import (
    COMPILE_SCHEMA_VERSION,
    CompileCache,
    configure_compile_cache,
    get_compile_cache,
    reset_compile_cache,
)


@pytest.fixture(autouse=True)
def _isolated_process_cache():
    """Tests in this file never leak state into the process cache."""
    reset_compile_cache()
    yield
    reset_compile_cache()


def test_memory_hit_skips_build():
    cache = CompileCache()
    first = cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1.5})

    def explode():
        raise AssertionError("build ran on a hit")

    second = cache.get_or_build("tables", {"x": 1}, explode)
    assert second == first
    assert cache.totals() == {"hits": 1, "misses": 1, "stores": 0}


def test_payloads_are_json_round_tripped_even_on_miss():
    cache = CompileCache()
    built = cache.get_or_build(
        "affinity", {"x": 1}, lambda: [(1, 2.5), (3, float("inf"))]
    )
    # Tuples became lists and inf survived: exactly what a disk replay
    # would return, so fresh and replayed consumers see identical data.
    assert built == [[1, 2.5], [3, float("inf")]]


def test_disk_round_trip_across_instances(tmp_path):
    store = tmp_path / "compile"
    cold = CompileCache(store_dir=store)
    payload = cold.get_or_build("estimates", {"n": 7}, lambda: {"a": [1, 2]})
    assert cold.totals() == {"hits": 0, "misses": 1, "stores": 1}

    warm = CompileCache(store_dir=store)  # fresh LRU, same store
    replayed = warm.get_or_build(
        "estimates", {"n": 7}, lambda: pytest.fail("built despite disk entry")
    )
    assert replayed == payload
    assert warm.totals() == {"hits": 1, "misses": 0, "stores": 0}


def test_list_payloads_survive_the_disk_envelope(tmp_path):
    store = tmp_path / "compile"
    CompileCache(store_dir=store).get_or_build(
        "affinity", {"n": 1}, lambda: [{"set_id": 0}]
    )
    warm = CompileCache(store_dir=store)
    assert warm.get_or_build(
        "affinity", {"n": 1}, lambda: pytest.fail("rebuilt")
    ) == [{"set_id": 0}]


def test_disk_entries_carry_the_compile_schema(tmp_path):
    store = tmp_path / "compile"
    cache = CompileCache(store_dir=store)
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    [entry_file] = [
        p for p in store.rglob("*.json") if "quarantine" not in p.parts
    ]
    entry = json.loads(entry_file.read_text())
    assert entry["schema"] == COMPILE_SCHEMA_VERSION
    assert entry["payload"] == {"data": {"v": 1}}


def test_corrupt_disk_entry_quarantines_and_rebuilds(tmp_path):
    store = tmp_path / "compile"
    cache = CompileCache(store_dir=store)
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    [entry_file] = [
        p for p in store.rglob("*.json") if "quarantine" not in p.parts
    ]
    entry_file.write_text("{ not json")

    fresh = CompileCache(store_dir=store)
    rebuilt = fresh.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    assert rebuilt == {"v": 1}
    assert fresh.totals() == {"hits": 0, "misses": 1, "stores": 1}
    assert fresh.store.quarantined == 1


def test_lru_evicts_oldest_entry():
    cache = CompileCache(memory_entries=2)
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    cache.get_or_build("tables", {"x": 2}, lambda: {"v": 2})
    # Touch x=1 so x=2 becomes the eviction candidate.
    cache.get_or_build("tables", {"x": 1}, lambda: pytest.fail("evicted"))
    cache.get_or_build("tables", {"x": 3}, lambda: {"v": 3})
    assert cache.get_or_build("tables", {"x": 2}, lambda: {"v": 2}) == {"v": 2}
    assert cache.totals()["misses"] == 4  # x=2 was evicted and rebuilt


def test_clear_memory_keeps_disk(tmp_path):
    store = tmp_path / "compile"
    cache = CompileCache(store_dir=store)
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    assert cache.clear_memory() == 1
    hit = cache.get_or_build(
        "tables", {"x": 1}, lambda: pytest.fail("disk entry lost")
    )
    assert hit == {"v": 1}
    assert cache.totals() == {"hits": 1, "misses": 1, "stores": 1}


def test_counters_split_per_kind_and_feed_telemetry():
    cache = CompileCache()
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    cache.get_or_build("affinity", {"x": 1}, lambda: [])
    assert cache.counter_snapshot() == {
        "affinity.miss": 1,
        "tables.hit": 1,
        "tables.miss": 1,
    }
    assert cache.hit_rate == pytest.approx(1 / 3)


def test_stats_shape(tmp_path):
    cache = CompileCache(store_dir=tmp_path / "compile")
    cache.get_or_build("tables", {"x": 1}, lambda: {"v": 1})
    stats = cache.stats()
    assert stats["schema"] == COMPILE_SCHEMA_VERSION
    assert stats["memory_entries"] == 1
    assert stats["stores"] == 1
    assert stats["store"]["entries"] == 1


def test_process_cache_configure_and_reset(tmp_path):
    first = get_compile_cache()
    assert get_compile_cache() is first
    assert first.store is None

    configured = configure_compile_cache(tmp_path / "a")
    assert configured is first
    assert str(configured.store.root) == str(tmp_path / "a")
    # Reconfiguring with the same directory keeps the store instance.
    store = configured.store
    assert configure_compile_cache(tmp_path / "a").store is store
    # A different directory retargets.
    assert str(
        configure_compile_cache(tmp_path / "b").store.root
    ) == str(tmp_path / "b")

    reset_compile_cache()
    assert get_compile_cache() is not first
