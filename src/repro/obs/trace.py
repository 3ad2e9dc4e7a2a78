"""``repro-trace-v1``: the JSONL trace interchange format.

A trace file is a header line followed by one JSON object per line, each
tagged with a ``kind``::

    {"format": "repro-trace-v1", "meta": {...}}
    {"kind": "span", "id": 1, "parent": null, "name": "campaign.run", ...}
    {"kind": "counter", "name": "campaign.instances", "value": 50}
    {"kind": "histogram", "name": "pipeline.stage.count.pull_s", ...}
    {"kind": "event", "name": "checkpoint.save", "t": 1.25, "attrs": {...}}

The format is line-oriented so traces can be streamed, grepped, and
concatenated; :func:`read_trace` reconstructs exactly the payload dict
:meth:`repro.obs.telemetry.Telemetry.export` produced (the round-trip is
bit-exact — Python's JSON float encoding is reversible).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.schemas import TRACE_V1

TRACE_FORMAT = TRACE_V1

#: line kinds a trace file may contain, in canonical write order
_KINDS = ("span", "counter", "histogram", "event")


def write_trace(path: Union[str, Path], payload: Dict[str, object]) -> int:
    """Write an exported telemetry payload as trace JSONL; returns lines.

    ``payload`` is the dict :meth:`Telemetry.export` returns.  Spans are
    written in payload order, counters and histograms sorted by name, so
    identical payloads produce byte-identical files.
    """
    if payload.get("format") != TRACE_FORMAT:
        raise ValueError(f"payload is not a {TRACE_FORMAT} export")
    lines: List[str] = [
        json.dumps(
            {"format": TRACE_FORMAT, "meta": payload.get("meta") or {}},
            sort_keys=True,
        )
    ]
    for span in payload.get("spans", []):  # type: ignore[union-attr]
        lines.append(json.dumps({"kind": "span", **span}, sort_keys=True))
    counters = payload.get("counters") or {}
    for name in sorted(counters):  # type: ignore[union-attr]
        lines.append(
            json.dumps(
                {"kind": "counter", "name": name, "value": counters[name]},
                sort_keys=True,
            )
        )
    histograms = payload.get("histograms") or {}
    for name in sorted(histograms):  # type: ignore[union-attr]
        lines.append(
            json.dumps(
                {"kind": "histogram", "name": name, **histograms[name]},
                sort_keys=True,
            )
        )
    for event in payload.get("events", []):  # type: ignore[union-attr]
        lines.append(json.dumps({"kind": "event", **event}, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def read_trace(path: Union[str, Path]) -> Dict[str, object]:
    """Read a trace file back into an export-shaped payload dict.

    Raises ``ValueError`` on a missing/foreign header or an unknown line
    kind — a trace that cannot round-trip must fail loudly, not decay
    into partial data.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
    payload: Dict[str, object] = {
        "format": TRACE_FORMAT,
        "meta": header.get("meta") or {},
        "spans": [],
        "counters": {},
        "histograms": {},
        "events": [],
    }
    spans: List[Dict[str, object]] = payload["spans"]  # type: ignore[assignment]
    counters: Dict[str, int] = payload["counters"]  # type: ignore[assignment]
    histograms: Dict[str, Dict[str, float]] = payload["histograms"]  # type: ignore[assignment]
    events: List[Dict[str, object]] = payload["events"]  # type: ignore[assignment]
    for lineno, line in enumerate(lines[1:], start=2):
        row = json.loads(line)
        kind = row.pop("kind", None)
        if kind == "span":
            spans.append(row)
        elif kind == "counter":
            counters[str(row["name"])] = int(row["value"])
        elif kind == "histogram":
            name = str(row.pop("name"))
            histograms[name] = row
        elif kind == "event":
            events.append(row)
        else:
            raise ValueError(f"{path}:{lineno}: unknown trace line kind {kind!r}")
    return payload
