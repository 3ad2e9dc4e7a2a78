"""The spool read path decodes exactly as ``record_from_dict(json.loads(...))``.

``record_from_json`` decodes with orjson and rebuilds a record's float
maps without copying an exact ``dict`` first, and ``JsonlSource`` reads
the spool through a large buffer.  Neither may change a record, a value
type, a key order, an exception or its message, and records must keep
the compact dicts that building by insertion gives.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pipeline.sources import READ_BUFFER, JsonlSource, SpoolError
from repro.record import (
    RECORD_FORMAT,
    SessionRecord,
    record_from_dict,
    record_from_json,
    record_to_json,
)

# ------------------------------------------------------------- generated texts

INT_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64,
             int("9" * 400), -int("7" * 400)]

NUMERIC_STRINGS = ["1.5", "-0", "1e3", " 2 ", "nan", "-Infinity", "1_0", "0x10"]

keys = st.text(max_size=6)

scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(INT_EDGES),
    st.booleans(),
    st.none(),
    st.sampled_from(NUMERIC_STRINGS),
    st.text(max_size=5),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(keys, inner, max_size=3),
    ),
    max_leaves=6,
)

#: what ``float()`` takes: the values a float map or ``mos`` may hold
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(INT_EDGES[:6]),
    st.booleans(),
    st.sampled_from(["1.5", "-0", "1e3", " 2 ", "nan", "-Infinity", "1_0"]),
)

#: a float map in any other form: pairs, odd values, not a map at all
odd_float_maps = st.one_of(
    st.dictionaries(keys, values, min_size=1, max_size=6),
    st.lists(st.tuples(keys, values).map(list), max_size=4),
    st.lists(st.lists(values, max_size=3), max_size=3),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.none(),
)

float_maps = st.dictionaries(keys, numbers, max_size=8)

#: field -> (a well-formed value, any value at all)
FIELDS = {
    "format": (st.just(RECORD_FORMAT), values),
    "features": (float_maps, odd_float_maps),
    "app_metrics": (float_maps, odd_float_maps),
    "mos": (numbers, values),
    "severity": (st.text(max_size=6), values),
    "fault_name": (st.text(max_size=6), values),
    "fault_severity": (st.text(max_size=6), values),
    "fault_location": (st.text(max_size=6), values),
    "fault_intensity": (float_maps, odd_float_maps),
    "meta": (st.dictionaries(keys, scalars, max_size=4), values),
}


@st.composite
def record_texts(draw):
    """A JSON text: a record object with a few fields odd or missing."""
    if draw(st.integers(0, 19)) == 0:
        return json.dumps(draw(values))  # not an object at all
    names = st.sampled_from(sorted(FIELDS))
    odd = draw(st.sets(names, max_size=2))
    missing = draw(st.sets(names, max_size=1))
    payload = {}
    for name, (good, anything) in FIELDS.items():
        if name not in missing:
            payload[name] = draw(anything if name in odd else good)
    return json.dumps(payload)


def _same_value(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_value(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def assert_same_record(got, want):
    """Every field equal, with the same types and key order (NaN == NaN)."""
    for f in dataclasses.fields(SessionRecord):
        assert _same_value(getattr(got, f.name), getattr(want, f.name)), f.name


def outcome(fn, text):
    try:
        return fn(text), None
    except Exception as exc:  # the error itself is what is compared
        return None, exc


def _bad_map(features):
    return '{"format": "%s", "features": %s}' % (RECORD_FORMAT, features)


@settings(max_examples=400, deadline=None)
@given(record_texts())
@example(_bad_map('"abc"'))  # ValueError from dict()
@example(_bad_map("7"))  # TypeError from dict()
@example(_bad_map('[["a", 1, 2]]'))  # a pair of three
@example(_bad_map('[["a", 1], [2, "2.5"]]'))  # pairs, one key not a str
@example(_bad_map('{"a": "x"}'))
@example(_bad_map('{"a": [1]}'))
@example(_bad_map('{"a": ' + "1" * 400 + "}"))  # OverflowError
def test_record_from_json_is_record_from_dict_of_json_loads(text):
    got, got_exc = outcome(record_from_json, text)
    want, want_exc = outcome(lambda t: record_from_dict(json.loads(t)), text)
    if want_exc is not None:
        assert type(got_exc) is type(want_exc), (got_exc, want_exc)
        assert str(got_exc) == str(want_exc)
    else:
        assert got_exc is None, got_exc
        assert_same_record(got, want)


def test_record_from_dict_keys_are_str_for_python_callers():
    payload = json.loads(_line(_record(3)))
    payload["app_metrics"] = {1: 2, ("a", 1): 3}
    assert record_from_dict(payload).app_metrics == {"1": 2.0, "('a', 1)": 3.0}


# ------------------------------------------------------------ simulated spools


def _record(n_features, i=0):
    return SessionRecord(
        features={f"mobile.m{j}": j * 0.1 + i for j in range(n_features)},
        app_metrics={"join_time_s": 2.5 + i, "rebuf_ratio": 1e-17},
        mos=3.25, severity="mild", fault_name="lan_shaping",
        fault_severity="mild", fault_location="lan",
        fault_intensity={"rate_bps": 1e6}, meta={"instance_index": i},
    )


def _line(record):
    return record_to_json(record)


def test_simulated_spool_lines_round_trip_byte_for_byte(mini_campaign_records):
    for record in mini_campaign_records:
        line = record_to_json(record)
        assert record_to_json(record_from_json(line)) == line


def test_decoded_float_maps_are_compact(mini_campaign_records):
    """Records hold dicts sized as if built by insertion, never larger."""
    for record in mini_campaign_records:
        clone = record_from_json(record_to_json(record))
        for m in (clone.features, clone.app_metrics, clone.fault_intensity):
            assert sys.getsizeof(m) == sys.getsizeof({k: v for k, v in m.items()})


def _reference_replay(path):
    """What the spool replay did with io's default buffer and stdlib ``json``."""
    records = []
    with open(path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                records.append(record_from_dict(json.loads(line)))
            except (ValueError, TypeError, KeyError, AttributeError,
                    OverflowError) as exc:
                return records, f"{path}:{lineno}: not a session record: {exc}"
    return records, None


def _replay(path):
    records = []
    try:
        for record in JsonlSource(path):
            records.append(record)
    except SpoolError as exc:
        return records, str(exc)
    return records, None


@pytest.mark.parametrize("bad", [None, b'{"format": "x"}', b"{not json"])
def test_jsonl_source_framing_matches_a_plain_read(tmp_path, bad):
    """Long lines, CRLF, blank lines, no final newline, then a bad line."""
    long = _line(_record(8000, 1)).encode()
    big = _line(_record(12000)).encode()
    assert 200_000 < len(long) < READ_BUFFER < len(big)
    chunks = [
        _line(_record(5, 0)).encode() + b"\r\n",
        long + b"\n",
        b"\n",
        b"  \r\n",
        big + b"\r\n",  # longer than one read buffer
        _line(_record(7, 2)).encode() + b"\n",
    ]
    if bad is not None:
        chunks += [bad + b"\n", _line(_record(5, 3)).encode() + b"\n"]
    chunks.append(_line(_record(6, 4)).encode())  # no final newline
    path = tmp_path / "spool.jsonl"
    path.write_bytes(b"".join(chunks))

    got, got_error = _replay(path)
    want, want_error = _reference_replay(path)
    assert got_error == want_error
    assert len(got) == len(want) == (4 if bad is not None else 5)
    for g, w in zip(got, want):
        assert_same_record(g, w)
    if bad is not None:
        assert got_error.startswith(f"{path}:7: not a session record:")
