"""Content-addressed, cross-run memoization of compile-side artifacts.

:class:`CompileCache` layers an in-process LRU over the PR-5 on-disk
:class:`~repro.exec.cache.ResultCache` (same atomic-write + quarantine
discipline, its own ``repro.compile/1`` envelope namespace).  It stores
JSON payloads, never domain objects, and :meth:`get_or_build` pushes even
freshly built payloads through a JSON round-trip before returning them --
so the cached and uncached compile paths consume literally identical
data, which is what makes the cache bit-transparent.

Memoized artifact kinds (key material in :mod:`repro.compile.keys`,
codecs in :mod:`repro.compile.artifacts`):

* ``estimates`` -- per-nest CME classified accesses;
* ``affinity``  -- per-nest MAI/CAI/alpha vectors under one view;
* ``tables``    -- MAC/CAC proximity tables (pristine or degraded).

A process-global instance (:func:`get_compile_cache`) is shared by every
compile in the process; forked sweep workers inherit its warm LRU.  The
sweep executor points its on-disk store at the cell's
``compile_cache_dir`` so artifacts persist across runs and processes.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.exec.cache import ResultCache

from .keys import COMPILE_SCHEMA_VERSION, material_digest

DEFAULT_MEMORY_ENTRIES = 256
"""In-process LRU capacity (payload count, all artifact kinds pooled)."""

_OUTCOME_TOTALS = {"hit": "hits", "miss": "misses", "store": "stores"}


def traffic_totals(counts: Iterable[Tuple[str, int]]) -> Dict[str, int]:
    """hits / misses / stores summed over ``("<kind>.<outcome>", n)``
    counter items, whichever caches, runs or cells they came from."""
    out = {"hits": 0, "misses": 0, "stores": 0}
    for name, count in counts:
        total_key = _OUTCOME_TOTALS.get(name.rpartition(".")[2])
        if total_key is not None:
            out[total_key] += count
    return out


class CompileCache:
    """Two-level (LRU + optional on-disk) compile artifact cache."""

    def __init__(
        self,
        store_dir: "Optional[str | Path]" = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.store: Optional[ResultCache] = (
            ResultCache(store_dir, schema=COMPILE_SCHEMA_VERSION)
            if store_dir is not None
            else None
        )
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        # Flat "<kind>.<outcome>" counters (e.g. "estimates.hit"); run
        # manifests and sweep cells record counters_since() deltas.
        self.counters: Dict[str, int] = {}

    # -- lookup ---------------------------------------------------------
    def key_for(self, kind: str, material: Dict[str, Any]) -> str:
        return material_digest(kind, material)

    def get_or_build(
        self,
        kind: str,
        material: Dict[str, Any],
        build: Callable[[], Any],
    ) -> Any:
        """The memoized JSON payload for (kind, material).

        On a miss, ``build()`` runs once and its result is JSON-round-
        tripped, remembered in the LRU, and (when a store is attached)
        persisted.  Returned payloads are shared across hits -- callers
        must treat them as immutable and decode into fresh domain
        objects.
        """
        key = self.key_for(kind, material)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self._count(kind, "hit")
            return cached
        if self.store is not None:
            entry = self.store.get(key)
            if entry is not None:
                payload = entry["data"]
                self._remember(key, payload)
                self._count(kind, "hit")
                return payload
        built = json.loads(json.dumps(build(), sort_keys=True))
        self._count(kind, "miss")
        if self.store is not None:
            # ResultCache envelopes require a dict payload; "data" wraps
            # list-shaped artifacts (affinity vectors) uniformly.
            self.store.put(key, {"data": built})
            self._count(kind, "store")
        self._remember(key, built)
        return built

    def _remember(self, key: str, payload: Any) -> None:
        memory = self._memory
        if key in memory:
            memory.move_to_end(key)
            memory[key] = payload
            return
        memory[key] = payload
        while len(memory) > self.memory_entries:
            memory.popitem(last=False)

    def _count(self, kind: str, outcome: str) -> None:
        name = f"{kind}.{outcome}"
        self.counters[name] = self.counters.get(name, 0) + 1

    # -- accounting -----------------------------------------------------
    def counter_snapshot(self) -> Dict[str, int]:
        """Sorted copy of the per-kind counters (delta arithmetic)."""
        return dict(sorted(self.counters.items()))

    def counters_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """The nonzero counter deltas since ``before`` (a
        :meth:`counter_snapshot`): the traffic of one run or cell on a
        cache the whole process shares."""
        after = self.counter_snapshot()
        return {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] - before.get(name, 0)
        }

    def totals(self) -> Dict[str, int]:
        """hits / misses / stores summed over artifact kinds."""
        return traffic_totals(self.counters.items())

    @property
    def hit_rate(self) -> float:
        totals = self.totals()
        attempts = totals["hits"] + totals["misses"]
        return totals["hits"] / attempts if attempts else 0.0

    def stats(self) -> Dict[str, Any]:
        """Inventory + traffic, the ``repro cache stats`` shape."""
        out: Dict[str, Any] = {
            "schema": COMPILE_SCHEMA_VERSION,
            "memory_entries": len(self._memory),
            "memory_capacity": self.memory_entries,
            "counters": self.counter_snapshot(),
            **self.totals(),
            "hit_rate": round(self.hit_rate, 4),
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    # -- maintenance ----------------------------------------------------
    def clear_memory(self) -> int:
        """Drop the in-process LRU (disk entries survive)."""
        dropped = len(self._memory)
        self._memory.clear()
        return dropped

    def __repr__(self) -> str:
        root = str(self.store.root) if self.store is not None else None
        return (
            f"CompileCache(store={root!r}, "
            f"memory={len(self._memory)}/{self.memory_entries})"
        )


# ----------------------------------------------------------------------
# Process-global instance (shared by every compile in this process;
# forked sweep workers inherit the warm LRU).
# ----------------------------------------------------------------------
_PROCESS_CACHE: Optional[CompileCache] = None


def get_compile_cache() -> CompileCache:
    """The process-wide compile cache (memory-only until configured)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = CompileCache()
    return _PROCESS_CACHE


def configure_compile_cache(store_dir: "str | Path") -> CompileCache:
    """Attach (or retarget) the process cache's on-disk store."""
    cache = get_compile_cache()
    root = Path(store_dir)
    if cache.store is None or Path(cache.store.root) != root:
        cache.store = ResultCache(root, schema=COMPILE_SCHEMA_VERSION)
    return cache


def reset_compile_cache() -> None:
    """Forget the process cache entirely (tests and benchmarks)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None
