"""JSON round-tripping of :class:`~repro.testbed.testbed.SessionRecord`.

The spool format is one JSON object per line.  Serialization must be
*exact*: ``json`` preserves floats through ``repr`` round-trips (and
:func:`repro.wire.loads` decodes exactly as ``json.loads`` does), so a
record written and re-read compares equal field for field — the property
the checkpoint/resume contract and the streaming-equivalence tests rely
on.  ``meta`` values are restricted to JSON scalars, which is all the
simulators ever store there.
"""

from __future__ import annotations

import json
from typing import Dict

from repro import wire
from repro.schemas import RECORD_V1
from repro.testbed.testbed import SessionRecord

#: format tag written into every spooled line, so foreign JSONL files
#: fail loudly instead of half-parsing.
RECORD_FORMAT = RECORD_V1


def record_to_dict(record: SessionRecord) -> Dict[str, object]:
    """A JSON-safe dict capturing every field of ``record``."""
    return {
        "format": RECORD_FORMAT,
        "features": dict(record.features),
        "app_metrics": dict(record.app_metrics),
        "mos": record.mos,
        "severity": record.severity,
        "fault_name": record.fault_name,
        "fault_severity": record.fault_severity,
        "fault_location": record.fault_location,
        "fault_intensity": dict(record.fault_intensity),
        "meta": dict(record.meta),
    }


def record_from_dict(payload: Dict[str, object]) -> SessionRecord:
    """Rebuild a :class:`SessionRecord` from :func:`record_to_dict` output."""
    if payload.get("format") != RECORD_FORMAT:
        raise ValueError("not a repro session-record payload")
    return SessionRecord(
        features={str(k): float(v) for k, v in dict(payload["features"]).items()},  # type: ignore[arg-type]
        app_metrics={str(k): float(v) for k, v in dict(payload["app_metrics"]).items()},  # type: ignore[arg-type]
        mos=float(payload["mos"]),  # type: ignore[arg-type]
        severity=str(payload["severity"]),
        fault_name=str(payload["fault_name"]),
        fault_severity=str(payload["fault_severity"]),
        fault_location=str(payload["fault_location"]),
        fault_intensity={str(k): float(v) for k, v in dict(payload["fault_intensity"]).items()},  # type: ignore[arg-type]
        meta=dict(payload["meta"]),  # type: ignore[arg-type]
    )


def record_to_json(record: SessionRecord) -> str:
    """One spool line (no trailing newline)."""
    return json.dumps(record_to_dict(record), separators=(",", ":"))


def record_from_json(line: str) -> SessionRecord:
    return record_from_dict(wire.loads(line))
