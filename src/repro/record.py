"""The session record: its type, its fault vocabulary and its spool encoding.

:class:`SessionRecord` is what every campaign yields and every spool line
holds: one session's features plus its ground truth.  It lives in this
leaf module, with the fault names its labels use and its JSON round
trip, so the diagnosis side (``repro.api``, ``repro.serve``,
``repro.core``) reads records without importing the simulator that
writes them.  ``repro.testbed.testbed`` re-exports the class, so pickles
that name it there still load, and ``repro.pipeline.records`` re-exports
the encoding.

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
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro import wire
from repro.schemas import RECORD_V1

#: canonical fault names as used in labels (Figure 4 of the paper)
FAULT_NAMES = (
    "wan_congestion",
    "wan_shaping",
    "lan_congestion",
    "lan_shaping",
    "mobile_load",
    "low_rssi",
    "wifi_interference",
)

#: fault -> path segment, for the location labels of Section 5.2.  The
#: wireless-medium faults occur in the user's local network.
FAULT_LOCATIONS = {
    "wan_congestion": "wan",
    "wan_shaping": "wan",
    "lan_congestion": "lan",
    "lan_shaping": "lan",
    "mobile_load": "mobile",
    "low_rssi": "lan",
    "wifi_interference": "lan",
}


@dataclass
class SessionRecord:
    """One labelled instance: features + ground truth + metadata."""

    features: Dict[str, float]
    app_metrics: Dict[str, float]
    mos: float
    severity: str  # good / mild / severe, from the MOS
    fault_name: str  # "none" for healthy scenarios
    fault_severity: str  # injected intent: "", "mild", "severe"
    fault_location: str  # "", "mobile", "lan", "wan"
    fault_intensity: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def exact_label(self) -> str:
        """Fault type + MOS severity, 'good' if QoE was unaffected."""
        if self.severity == "good" or self.fault_name == "none":
            return "good"
        return f"{self.fault_name}_{self.severity}"

    @property
    def location_label(self) -> str:
        if self.severity == "good" or self.fault_name == "none":
            return "good"
        return f"{self.fault_location}_{self.severity}"

    @property
    def severity_label(self) -> str:
        return self.severity


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


def _float_map(value: object) -> Dict[str, float]:
    """``value`` (a mapping or pairs) as a fresh ``{str: float}`` dict."""
    items = value if type(value) is dict else dict(value)  # type: ignore[arg-type]
    return {str(k): float(v) for k, v in items.items()}


#: the key types and the value types of a float map that is kept as it is
_STR_ONLY = frozenset((str,))
_FLOAT_ONLY = frozenset((float,))


def _kept_float_map(value: object) -> Dict[str, float]:
    """``value`` itself when it is an exact ``{str: float}`` dict, else :func:`_float_map`.

    For such a map :func:`_float_map` builds an equal dict of the very
    same key and value objects (``str(k) is k``, ``float(v) is v``), so
    keeping it changes nothing but the time.  Two passes in C decide:
    the set of key types and the set of value types.  Only exact types
    qualify; a ``str`` or ``float`` subclass is converted as before.

    Only the request parser keeps maps: a request's records are scored
    and dropped, while spool records are held, in the compact dicts
    :func:`record_from_json` rebuilds.
    """
    if (
        type(value) is dict
        and set(map(type, value)) <= _STR_ONLY
        and set(map(type, value.values())) <= _FLOAT_ONLY
    ):
        return value
    return _float_map(value)


def record_from_dict(payload: Dict[str, object]) -> SessionRecord:
    """Rebuild a :class:`SessionRecord` from :func:`record_to_dict` output."""
    return _build_record(payload, _float_map)


def _build_record(
    payload: Dict[str, object], float_map: Callable[[object], Dict[str, float]]
) -> SessionRecord:
    """:func:`record_from_dict`, with ``float_map`` making the three float maps."""
    if payload.get("format") != RECORD_FORMAT:
        raise ValueError("not a repro session-record payload")
    return SessionRecord(
        features=float_map(payload["features"]),
        app_metrics=float_map(payload["app_metrics"]),
        mos=float(payload["mos"]),  # type: ignore[arg-type]
        severity=str(payload["severity"]),
        fault_name=str(payload["fault_name"]),
        fault_severity=str(payload["fault_severity"]),
        fault_location=str(payload["fault_location"]),
        fault_intensity=float_map(payload["fault_intensity"]),
        meta=dict(payload["meta"]),  # type: ignore[arg-type]
    )


def record_to_json(record: SessionRecord) -> str:
    """One spool line (no trailing newline)."""
    return json.dumps(record_to_dict(record), separators=(",", ":"))


def record_from_json(line: str) -> SessionRecord:
    """Decode one spool line: ``record_from_dict(json.loads(line))``.

    The float maps are always rebuilt, never the decoder's own dicts,
    which orjson presizes to about 1.4 times the memory of a dict built
    by insertion.
    """
    return record_from_dict(wire.loads(line))
