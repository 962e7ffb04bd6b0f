"""Unit tests for the structured event stream: levels, JSONL."""

import pytest

from repro.obs import LEVELS, EventStream


class TestLevels:
    def test_level_order(self):
        assert LEVELS == ("off", "decisions", "debug")

    def test_off_drops_everything(self):
        s = EventStream(level="off")
        assert not s.enabled
        assert not s.emit("x")
        assert not s.emit("x", level="debug")
        assert len(s) == 0

    def test_decisions_drops_debug(self):
        s = EventStream(level="decisions")
        assert s.emit("keep")
        assert not s.emit("drop", level="debug")
        assert [e["kind"] for e in s.events] == ["keep"]

    def test_debug_keeps_all(self):
        s = EventStream(level="debug")
        assert s.emit("a")
        assert s.emit("b", level="debug")
        assert len(s) == 2

    def test_unknown_levels_rejected(self):
        with pytest.raises(ValueError):
            EventStream(level="verbose")
        with pytest.raises(ValueError):
            EventStream().emit("x", level="verbose")


class TestSerialization:
    def test_seq_numbers_are_contiguous(self):
        s = EventStream()
        for i in range(5):
            s.emit("k", i=i)
        assert [e["seq"] for e in s.events] == list(range(5))

    def test_jsonl_roundtrip(self):
        s = EventStream()
        s.emit("a", x=1)
        s.emit("b", y="z")
        loaded = EventStream.load_jsonl(s.to_jsonl())
        assert loaded == s.events

    def test_save(self, tmp_path):
        s = EventStream()
        s.emit("a", x=1)
        path = tmp_path / "events.jsonl"
        s.save(str(path))
        assert EventStream.load_jsonl(path.read_text()) == s.events

    def test_of_kind_filters(self):
        s = EventStream()
        s.emit("a")
        s.emit("b")
        s.emit("a")
        assert len(s.of_kind("a")) == 2
        assert len(s.of_kind("a", "b")) == 3
