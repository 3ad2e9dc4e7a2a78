"""repro-trace-v1 round-trip: write_trace/read_trace must be exact."""

from __future__ import annotations

import json

import pytest

from repro.obs.telemetry import Telemetry
from repro.obs.trace import TRACE_FORMAT, read_trace, write_trace


def _nested_payload() -> dict:
    tel = Telemetry(enabled=True)
    with tel.span("run", kind="controlled") as run:
        with tel.span("instance", index=0) as inst:
            inst.count("records", 3)
            tel.event("checkpoint.save", spool="x.jsonl", completed=1)
        with tel.span("instance", index=1):
            pass
        run.count("instances", 2)
    tel.count("pipeline.count.records_out", 2)
    tel.observe("chunk_s", 0.125)
    tel.observe("chunk_s", 0.375)
    return tel.export(command="test")


def test_round_trip_is_exact(tmp_path):
    payload = _nested_payload()
    path = tmp_path / "trace.jsonl"
    lines = write_trace(path, payload)
    # header + 3 spans + 2 counters (events.total too) + 1 histogram + 1 event
    assert lines == len(path.read_text().splitlines())
    assert read_trace(path) == payload


def test_round_trip_preserves_nesting(tmp_path):
    payload = _nested_payload()
    path = tmp_path / "trace.jsonl"
    write_trace(path, payload)
    spans = read_trace(path)["spans"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    (run,) = by_name["run"]
    assert run["parent"] is None
    assert all(s["parent"] == run["id"] for s in by_name["instance"])


def test_write_is_deterministic(tmp_path):
    payload = _nested_payload()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(a, payload)
    write_trace(b, payload)
    assert a.read_bytes() == b.read_bytes()


def test_write_rejects_foreign_payload(tmp_path):
    with pytest.raises(ValueError):
        write_trace(tmp_path / "x.jsonl", {"format": "something-else"})


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace(path)


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.jsonl"
    path.write_text(json.dumps({"format": "otel"}) + "\n")
    with pytest.raises(ValueError, match=TRACE_FORMAT):
        read_trace(path)


def test_read_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"format": TRACE_FORMAT, "meta": {}}) + "\n"
        + json.dumps({"kind": "mystery", "name": "x"}) + "\n"
    )
    with pytest.raises(ValueError, match="mystery"):
        read_trace(path)


def _worker_payload(count: int) -> dict:
    tel = Telemetry(enabled=True)
    with tel.span("campaign.instance", index=count):
        tel.count("records", count)
        tel.observe("instance_s", float(count))
    return tel.export()


def test_absorbed_worker_payloads_round_trip(tmp_path):
    # what a traced parallel campaign writes: a parent that absorbed its
    # workers' payloads (re-based span ids, worker-stamped attrs)
    parent = Telemetry(enabled=True)
    for count in (2, 5):
        parent.absorb(_worker_payload(count))
    merged = parent.export()
    assert merged["counters"]["records"] == 7
    assert all("worker" in s["attrs"] for s in merged["spans"])
    path = tmp_path / "merged.jsonl"
    write_trace(path, merged)
    assert read_trace(path) == merged
