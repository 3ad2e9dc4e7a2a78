"""Spool serialization: JSON round trips must be exact."""

import dataclasses
import math

import pytest

from repro.pipeline import JsonlSource
from repro.pipeline.records import (
    RECORD_FORMAT,
    record_from_dict,
    record_from_json,
    record_to_dict,
    record_to_json,
)
from repro.testbed.testbed import SessionRecord


def make_record(**overrides):
    base = dict(
        features={"mobile.rssi_mean": -67.25, "router.retr_rate": 0.1 + 0.2},
        app_metrics={"rebuf_ratio": 1e-17, "join_time_s": 2.5},
        mos=3.4375,
        severity="mild",
        fault_name="low_rssi",
        fault_severity="mild",
        fault_location="mobile",
        fault_intensity={"rssi_floor": -88.0},
        meta={"instance_index": 7, "session_s": 12.5, "server_mode": "apache"},
    )
    base.update(overrides)
    return SessionRecord(**base)


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        record = make_record()
        clone = record_from_dict(record_to_dict(record))
        assert clone == record

    def test_json_round_trip_is_exact(self):
        # The floats are deliberately repr-unfriendly: 0.1 + 0.2 and 1e-17
        # only survive if serialization goes through full-precision repr.
        record = make_record()
        clone = record_from_json(record_to_json(record))
        assert clone == record
        assert clone.features["router.retr_rate"] == 0.1 + 0.2
        assert clone.app_metrics["rebuf_ratio"] == 1e-17

    def test_meta_scalars_preserve_types(self):
        clone = record_from_json(record_to_json(make_record()))
        assert clone.meta["instance_index"] == 7
        assert isinstance(clone.meta["instance_index"], int)
        assert clone.meta["server_mode"] == "apache"

    def test_line_has_no_newline(self):
        assert "\n" not in record_to_json(make_record())


class TestFormatTag:
    def test_payload_carries_format(self):
        assert record_to_dict(make_record())["format"] == RECORD_FORMAT

    def test_foreign_payload_rejected(self):
        with pytest.raises(ValueError, match="session-record"):
            record_from_dict({"features": {}})

    def test_wrong_format_rejected(self):
        payload = record_to_dict(make_record())
        payload["format"] = "someone-elses-v9"
        with pytest.raises(ValueError, match="session-record"):
            record_from_dict(payload)


def _same_value(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, dict):
        return (type(b) is dict and list(a) == list(b)
                and all(_same_value(a[k], b[k]) for k in a))
    return type(a) is type(b) and a == b


def assert_same_record(got, want):
    """Field-for-field equality that counts NaN equal to NaN."""
    for f in dataclasses.fields(SessionRecord):
        assert _same_value(getattr(got, f.name), getattr(want, f.name)), f.name


class TestNonFinite:
    """``record_to_json`` writes NaN/Infinity; reading must give them back."""

    def non_finite_record(self, i=0):
        nan, inf = float("nan"), float("inf")
        return make_record(
            features={"a.nan": nan, "b.inf": inf, "c.ninf": -inf, "d.x": 0.5 + i},
            app_metrics={"rebuf_ratio": nan, "join_time_s": inf, "stall_s": -inf},
        )

    def test_json_round_trip_keeps_non_finite(self):
        record = self.non_finite_record()
        line = record_to_json(record)
        assert "NaN" in line and "-Infinity" in line
        assert_same_record(record_from_json(line), record)

    def test_jsonl_source_replays_non_finite(self, tmp_path):
        records = [self.non_finite_record(i) for i in range(3)]
        spool = tmp_path / "spool.jsonl"
        spool.write_text("".join(record_to_json(r) + "\n" for r in records),
                         encoding="utf-8")
        replayed = list(JsonlSource(spool))
        assert len(replayed) == len(records)
        for got, want in zip(replayed, records):
            assert_same_record(got, want)
