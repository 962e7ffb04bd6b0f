"""Structured JSONL event stream for scheduling / engine decisions.

Events are plain dicts with a ``kind`` plus arbitrary JSON-serializable
fields.  The stream records *decisions*, not wall time: every field an
event carries is deterministic given (workload, config, seed), which is
what lets the differential suite assert that the fast and reference
engines drive the mapper to byte-identical decision streams.

Levels (cheapest first): ``off`` < ``decisions`` < ``debug``.  An event
carries its own level; the stream drops anything above its configured
level before any formatting work happens.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

LEVELS = ("off", "decisions", "debug")
_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}


class EventStream:
    """In-memory JSONL event recorder."""

    def __init__(self, level: str = "decisions"):
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown level {level!r}; one of {LEVELS}")
        self.level = level
        self.tee: Optional[Callable[[dict], None]] = None
        self.events: List[dict] = []
        self._seq = 0

    @property
    def enabled(self) -> bool:
        return self.level != "off"

    def _admits(self, level: str) -> bool:
        return _LEVEL_RANK[level] <= _LEVEL_RANK[self.level]

    # -- recording -------------------------------------------------------
    def emit(self, kind: str, level: str = "decisions", **fields) -> bool:
        """Record one event; returns whether it was kept."""
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown level {level!r}; one of {LEVELS}")
        if not self._admits(level):
            return False
        event = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self._seq += 1
        self.events.append(event)
        if self.tee is not None:
            # Mirror admitted events to an observer (e.g. the span tracer
            # turning mapper/fault/engine decisions into instant spans).
            self.tee(event)
        return True

    # -- queries ---------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[dict]:
        wanted = set(kinds)
        return [e for e in self.events if e["kind"] in wanted]

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization ---------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.events
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @staticmethod
    def load_jsonl(text: str) -> List[dict]:
        return [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
