"""Unit tests for the telemetry registry: spans, counters, absorb."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import (
    MAX_EVENTS,
    NULL_SPAN,
    Histogram,
    NullSpan,
    Telemetry,
    get_telemetry,
    set_telemetry,
    tracing,
)


class TestDisabled:
    def test_span_returns_shared_null_span(self):
        tel = Telemetry()
        with tel.span("a") as first:
            pass
        with tel.span("b", key=1) as second:
            pass
        assert first is NULL_SPAN
        assert second is NULL_SPAN
        assert isinstance(first, NullSpan)
        assert tel.spans == []

    def test_instruments_collect_nothing(self):
        tel = Telemetry()
        tel.count("c", 3)
        tel.observe("h", 1.5)
        tel.event("e", detail="x")
        tel.record_span("s", dur_s=0.1)
        assert tel.counters == {}
        assert tel.histograms == {}
        assert tel.events == []
        assert tel.spans == []

    def test_null_span_api_is_inert(self):
        NULL_SPAN.count("x")
        NULL_SPAN.set("k", "v")
        with NULL_SPAN as span:
            assert span is NULL_SPAN


class TestSpans:
    def test_nesting_assigns_parent_ids(self):
        tel = Telemetry(enabled=True)
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                pass
        assert outer.parent is None
        assert inner.parent == outer.id
        assert inner.id != outer.id
        # completion order: inner closes first
        assert [s.name for s in tel.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        tel = Telemetry(enabled=True)
        with tel.span("outer") as outer:
            with tel.span("a") as a:
                pass
            with tel.span("b") as b:
                pass
        assert a.parent == outer.id and b.parent == outer.id
        assert a.id != b.id

    def test_span_counts_and_attrs(self):
        tel = Telemetry(enabled=True)
        with tel.span("s", kind="x") as span:
            span.count("records")
            span.count("records", 4)
            span.set("late", True)
        assert span.counts == {"records": 5}
        assert span.attrs == {"kind": "x", "late": True}
        assert span.dur_s >= 0.0

    def test_record_span_parents_to_open_span(self):
        tel = Telemetry(enabled=True)
        with tel.span("outer") as outer:
            tel.record_span("agg", dur_s=0.25, counts={"n": 7}, attrs={"k": 1})
        (agg,) = [s for s in tel.spans if s.name == "agg"]
        assert agg.parent == outer.id
        assert agg.dur_s == 0.25
        assert agg.counts == {"n": 7}
        assert agg.attrs == {"k": 1}

    def test_span_has_no_manual_lifecycle(self):
        # the `with` statement is the only way to open and close a span
        tel = Telemetry(enabled=True)
        with tel.span("s") as span:
            for method in ("start", "finish"):
                with pytest.raises(AttributeError):
                    getattr(span, method)()
                with pytest.raises(AttributeError):
                    getattr(NULL_SPAN, method)()

    def test_record_span_top_level_without_open_span(self):
        tel = Telemetry(enabled=True)
        tel.record_span("solo", dur_s=0.1, t0=2.0)
        (solo,) = tel.spans
        assert solo.parent is None
        assert solo.t0 == 2.0


class TestCountersHistogramsEvents:
    def test_counters_accumulate(self):
        tel = Telemetry(enabled=True)
        tel.count("a")
        tel.count("a", 2)
        tel.count("b", 5)
        assert tel.counters == {"a": 3, "b": 5}

    def test_histogram_summary(self):
        hist = Histogram()
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.to_dict() == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0,
        }

    def test_histogram_merge(self):
        hist = Histogram()
        hist.observe(2.0)
        hist.merge({"count": 2, "total": 9.0, "min": 4.0, "max": 5.0})
        assert hist.to_dict() == {
            "count": 3, "total": 11.0, "min": 2.0, "max": 5.0,
        }
        hist.merge({"count": 0, "total": 0.0, "min": 0.0, "max": 0.0})
        assert hist.count == 3

    def test_events_capped(self):
        tel = Telemetry(enabled=True)
        for i in range(MAX_EVENTS + 5):
            tel.event("e", i=i)
        assert len(tel.events) == MAX_EVENTS
        assert tel.counters["events.total"] == MAX_EVENTS + 5
        assert tel.counters["events.dropped"] == 5


class TestExportAbsorb:
    def _worker_payload(self, name: str, count: int) -> dict:
        worker = Telemetry(enabled=True)
        with worker.span(name, role="worker"):
            worker.count("records", count)
            worker.observe("latency", float(count))
            worker.event("done", n=count)
        return worker.export()

    def test_absorb_rebases_ids_and_stamps_worker(self):
        parent = Telemetry(enabled=True)
        with parent.span("run") as run:
            parent.absorb(self._worker_payload("instance", 2), worker="w1")
            parent.absorb(self._worker_payload("instance", 3), worker="w2")
        absorbed = [s for s in parent.spans if s.name == "instance"]
        assert {s.attrs["worker"] for s in absorbed} == {"w1", "w2"}
        # absorbed top-level spans hang off the span open at absorb time
        assert all(s.parent == run.id for s in absorbed)
        ids = [s.id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_absorb_merges_counters_and_histograms(self):
        parent = Telemetry(enabled=True)
        parent.absorb(self._worker_payload("a", 2))
        parent.absorb(self._worker_payload("b", 3))
        assert parent.counters["records"] == 5
        hist = parent.histograms["latency"].to_dict()
        assert hist["count"] == 2 and hist["total"] == 5.0
        assert len(parent.events) == 2

    def test_absorb_defaults_worker_to_payload_pid(self):
        parent = Telemetry(enabled=True)
        payload = self._worker_payload("a", 1)
        parent.absorb(payload)
        (span,) = [s for s in parent.spans if s.name == "a"]
        assert span.attrs["worker"] == payload["meta"]["pid"]

    def test_absorb_rejects_foreign_payload(self):
        parent = Telemetry(enabled=True)
        with pytest.raises(ValueError):
            parent.absorb({"format": "not-a-trace"})

    def test_absorb_noop_when_disabled(self):
        parent = Telemetry()
        parent.absorb(self._worker_payload("a", 1))
        assert parent.spans == [] and parent.counters == {}

    def test_export_meta_and_sorted_spans(self):
        tel = Telemetry(enabled=True)
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        payload = tel.export(command="test")
        assert payload["format"] == "repro-trace-v1"
        assert payload["meta"]["command"] == "test"
        names = [s["name"] for s in payload["spans"]]
        # sorted by start time, not completion order
        assert names == ["outer", "inner"]


class TestRegistryLifecycle:
    def test_reset_clears_everything(self):
        tel = Telemetry(enabled=True)
        with tel.span("s"):
            tel.count("c")
            tel.observe("h", 1.0)
            tel.event("e")
        tel.reset()
        assert tel.spans == [] and tel.counters == {}
        assert tel.histograms == {} and tel.events == []

    def test_set_telemetry_swaps_registry(self):
        scratch = Telemetry(enabled=True)
        previous = set_telemetry(scratch)
        try:
            assert get_telemetry() is scratch
        finally:
            set_telemetry(previous)
        assert get_telemetry() is previous

    def test_tracing_restores_enabled_state(self):
        tel = get_telemetry()
        assert not tel.enabled
        with tracing() as traced:
            assert traced is tel
            assert tel.enabled
            with tel.span("s"):
                pass
        assert not tel.enabled
        # collected data is left for export after the block
        assert [s.name for s in tel.spans] == ["s"]
        tel.reset()
