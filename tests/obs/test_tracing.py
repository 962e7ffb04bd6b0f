"""Unit tests for the span runtime: ids, nesting, merge, export.

The determinism contract is the headline: span ids derive only from
(trace id, scope, name, occurrence index), never from the wall clock or
the pid, so the same logical experiment produces the same ids whatever
the scheduling did.  Cross-process behaviour (context through SweepCell,
envelope merge) is covered end-to-end in
``tests/exec/test_trace_equivalence.py``; this module pins the runtime
itself.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.tracing import (
    TRACE_SCHEMA,
    Span,
    TraceContext,
    Tracer,
    derive_trace_id,
    span_id,
    validate_trace_events,
)


def make_tracer(trace_id: str = "t" * 16) -> Tracer:
    return Tracer(TraceContext(trace_id=trace_id))


class TestIds:
    def test_trace_id_is_deterministic(self):
        assert derive_trace_id(["k1", "k2"]) == derive_trace_id(["k1", "k2"])
        assert derive_trace_id(["k1"]) != derive_trace_id(["k2"])
        assert len(derive_trace_id(["k1"])) == 16

    def test_span_id_is_deterministic(self):
        a = span_id("tid", "scope", "attempt", 0)
        assert a == span_id("tid", "scope", "attempt", 0)
        assert a != span_id("tid", "scope", "attempt", 1)
        assert a != span_id("tid", "other", "attempt", 0)
        assert len(a) == 16

    def test_repeated_names_get_distinct_ids(self):
        tracer = make_tracer()
        with tracer.span("work"):
            pass
        with tracer.span("work"):
            pass
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == 2

    def test_ids_do_not_depend_on_wall_clock_or_pid(self):
        first = make_tracer()
        with first.span("work"):
            first.instant("marker")
        second = make_tracer()
        with second.span("work"):
            second.instant("marker")
        assert [s.span_id for s in first.spans] == [
            s.span_id for s in second.spans
        ]


class TestRecording:
    def test_nested_spans_parent_correctly(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Spans close inner-first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_context_parent_seeds_root_spans(self):
        ctx = TraceContext(trace_id="t" * 16, parent_span_id="p" * 16)
        tracer = Tracer(ctx)
        with tracer.span("root") as root:
            pass
        assert root.parent_id == "p" * 16

    def test_instant_is_marked_and_durationless(self):
        tracer = make_tracer()
        span = tracer.instant("cache-hit", cat="executor", cell="mxm")
        assert span.instant
        assert span.duration == 0.0
        assert span.args == {"cell": "mxm"}

    def test_interval_clamps_negative_durations(self):
        tracer = make_tracer()
        span = tracer.interval("queue-wait", 100.0, 99.5)
        assert span.duration == 0.0

    def test_add_spans_round_trips(self):
        worker = Tracer(
            TraceContext(trace_id="t" * 16, scope="cell-key")
        )
        with worker.span("attempt", cat="executor"):
            worker.instant("mapper.assign", cat="mapper")
        coordinator = make_tracer()
        coordinator.add_spans(worker.to_dicts())
        assert [s.span_id for s in coordinator.spans] == [
            s.span_id for s in worker.spans
        ]
        assert coordinator.spans[-1].scope == "cell-key"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer.disabled()
        with tracer.span("work") as span:
            assert span is None
        assert tracer.instant("x") is None
        assert tracer.interval("y", 0.0, 1.0) is None
        tracer.add_spans([])
        assert len(tracer) == 0
        assert tracer.skeleton() == []


class TestEventTee:
    def test_decision_events_become_instants(self):
        tracer = make_tracer()
        tee = tracer.event_tee()
        tee({"kind": "mapper.assign", "seq": 3, "node": 7})
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "mapper.assign"
        assert span.cat == "mapper"
        assert span.instant
        assert span.args == {"node": 7}  # kind/seq stripped


class TestSkeleton:
    def test_skeleton_is_sorted_and_timestamp_free(self):
        tracer = make_tracer()
        with tracer.span("b"):
            pass
        with tracer.span("a"):
            pass
        rows = tracer.skeleton()
        assert rows == sorted(rows)
        for row in rows:
            scope, name, cat, sid, parent = row.split("|")
            assert len(sid) == 16

    def test_skeleton_scope_filter(self):
        tracer = make_tracer()
        tracer.instant("submit", scope="cell-1")
        tracer.instant("retry-backoff", scope="coord")
        assert len(tracer.skeleton(scopes=["cell-1"])) == 1
        assert len(tracer.skeleton()) == 2


class TestExport:
    def build(self):
        tracer = make_tracer()
        with tracer.span("sweep", cat="executor"):
            with tracer.span("attempt", cat="executor", scope="cell-1"):
                pass
            tracer.instant("cache-hit", cat="executor", scope="cell-1")
        return tracer

    def test_trace_events_shape(self):
        tracer = self.build()
        events = tracer.trace_events()
        metas = [e for e in events if e["ph"] == "M"]
        assert len(metas) == 1  # one process
        completes = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in completes} == {"sweep", "attempt"}
        assert [e["name"] for e in instants] == ["cache-hit"]
        assert all(e["s"] == "p" for e in instants)
        # Timestamps are offsets from the earliest span: start at 0.
        assert min(e["ts"] for e in completes + instants) == 0.0
        assert all(e["dur"] >= 0 for e in completes)

    def test_exported_document_validates(self):
        document = json.loads(self.build().to_trace_json())
        assert validate_trace_events(document) == []
        assert document["otherData"]["schema"] == TRACE_SCHEMA
        assert document["otherData"]["spans"] == 3

    def test_empty_tracer_exports_empty_timeline(self):
        document = json.loads(make_tracer().to_trace_json())
        assert document["traceEvents"] == []
        assert validate_trace_events(document) == []

    def test_save_writes_loadable_json(self, tmp_path):
        path = tmp_path / "run.trace.json"
        self.build().save(str(path))
        document = json.loads(path.read_text())
        assert validate_trace_events(document) == []

    def test_worker_pids_excludes_own(self):
        tracer = self.build()
        foreign = Span(
            span_id="f" * 16, name="attempt", cat="executor",
            scope="cell-2", start_unix=0.0, pid=tracer.pid + 1,
        )
        tracer.add_spans([foreign.to_dict()])
        assert tracer.worker_pids() == [tracer.pid + 1]


class TestValidator:
    def test_flags_malformed_events(self):
        bad = {"traceEvents": [
            {"ph": "Q", "name": "x", "pid": 1},
            {"ph": "X", "name": "x", "pid": 1, "ts": "soon", "dur": 1},
            {"ph": "X", "name": "x", "pid": 1, "ts": 0, "dur": -1},
            {"ph": "i", "name": "x", "pid": 1, "ts": 0},
            {"ph": "X", "pid": 1, "ts": 0, "dur": 0},
            "not-an-object",
        ]}
        violations = validate_trace_events(bad)
        assert len(violations) == 6

    def test_flags_non_list_timeline(self):
        assert validate_trace_events({}) == ["traceEvents is not a list"]


class TestContext:
    def test_child_rebinds_scope_and_parent(self):
        ctx = TraceContext(trace_id="t" * 16)
        child = ctx.child("cell-1", parent_span_id="p" * 16,
                          submitted_unix=12.5)
        assert child.trace_id == ctx.trace_id
        assert child.scope == "cell-1"
        assert child.parent_span_id == "p" * 16
        assert child.submitted_unix == 12.5

    def test_context_is_frozen_and_picklable(self):
        import pickle

        ctx = TraceContext(trace_id="t" * 16, scope="cell-1")
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        with pytest.raises(Exception):
            ctx.trace_id = "other"
