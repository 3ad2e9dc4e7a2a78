"""The `repro.api` facade: one definition for wire schema and library API."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api, wire
from repro.core.diagnosis import RootCauseAnalyzer
from repro.pipeline.records import record_to_dict
from repro.schemas import RECORD_V1
from repro.testbed.testbed import SessionRecord


def test_request_round_trips_wire_records(mini_campaign_records):
    records = mini_campaign_records[:3]
    payload = {"schema": api.REQUEST_SCHEMA,
               "records": [record_to_dict(r) for r in records]}
    request = api.DiagnoseRequest.from_dict(payload)
    assert all(isinstance(r, SessionRecord) for r in request.records)
    assert [r.features for r in request.records] == [r.features for r in records]
    again = api.DiagnoseRequest.from_dict(
        {"schema": api.REQUEST_SCHEMA, "records": request.to_dict()["records"]})
    assert [r.features for r in again.records] == [r.features for r in records]


def test_coerce_session_shapes():
    bare = api.coerce_session({"a": 1, "b": 2.5})
    assert bare == {"a": 1.0, "b": 2.5}
    wrapped = api.coerce_session({"features": {"a": 1}, "meta": {"session_s": 9}})
    assert isinstance(wrapped, api.SessionInput)
    assert wrapped.features == {"a": 1.0}
    assert wrapped.meta == {"session_s": 9}


@pytest.mark.parametrize("bad", [
    3, "x", ["list"],
    {"features": "not-a-dict-means-bare-map-with-string-value"},
    {"features": {"a": 1}, "meta": "nope"},
    {"format": "repro-record-v1"},  # claims the spool format, lacks fields
])
def test_coerce_session_rejects_malformed(bad):
    with pytest.raises(api.ApiError):
        api.coerce_session(bad)


def test_request_schema_enforced():
    with pytest.raises(api.ApiError, match="unsupported request schema"):
        api.DiagnoseRequest.from_dict({"schema": "repro-diagnose-request-v9",
                                       "records": []})
    with pytest.raises(api.ApiError, match="JSON object"):
        api.DiagnoseRequest.from_dict([1, 2])


def test_diagnose_records_matches_diagnose_batch(mini_analyzer,
                                                 mini_campaign_records):
    records = mini_campaign_records[:10]
    response = api.diagnose_records(mini_analyzer, records)
    offline = [r.to_dict() for r in mini_analyzer.diagnose_batch(records)]
    assert api.canonical_json(response.diagnoses) == api.canonical_json(offline)
    payload = response.to_dict()
    assert payload["schema"] == api.RESPONSE_SCHEMA
    assert payload["model"]["schema"] == api.MODEL_INFO_SCHEMA


def test_diagnose_records_accepts_wire_dicts(mini_analyzer,
                                             mini_campaign_records):
    records = mini_campaign_records[:6]
    via_wire = api.diagnose_records(
        mini_analyzer, [record_to_dict(r) for r in records])
    via_objects = api.diagnose_records(mini_analyzer, records)
    assert via_wire.diagnoses == via_objects.diagnoses


def test_diagnose_stream_matches_batch(mini_analyzer, mini_campaign_records):
    records = mini_campaign_records[:9]
    streamed = [r.to_dict()
                for r in api.diagnose_stream(mini_analyzer, records, chunk=4)]
    batched = [r.to_dict() for r in mini_analyzer.diagnose_batch(records)]
    assert streamed == batched


def test_model_info_shape(mini_analyzer):
    info = api.model_info(mini_analyzer, version="v3")
    data = info.to_dict()
    assert data["version"] == "v3"
    assert data["format"] == "repro-analyzer-v2"
    assert set(data["features"]) == {"severity", "location", "exact"}
    assert all(n > 0 for n in data["features"].values())


def test_load_analyzer_sources(tmp_path, mini_analyzer, mini_dataset):
    export = tmp_path / "model.json"
    mini_analyzer.save(export)
    loaded = api.load_analyzer(path=export)
    assert loaded.fitted and tuple(loaded.vps) == tuple(mini_analyzer.vps)

    fitted = api.load_analyzer(dataset=mini_dataset, vps=("mobile",))
    assert fitted.vps == ("mobile",)

    import pickle

    train = tmp_path / "train.pkl"
    with train.open("wb") as fh:
        pickle.dump(mini_dataset, fh)
    from_pickle = api.load_analyzer(train=train, vps=("mobile",))
    assert from_pickle.selected_features() == fitted.selected_features()

    with pytest.raises(ValueError, match="at most one"):
        api.load_analyzer(path=export, train=train)
    junk = tmp_path / "junk.pkl"
    with junk.open("wb") as fh:
        pickle.dump({"not": "a dataset"}, fh)
    with pytest.raises(ValueError, match="repro Dataset"):
        api.load_analyzer(train=junk)


def test_canonical_json_is_canonical():
    assert api.canonical_json({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'
    # floats survive a parse/re-encode round trip exactly
    value = 0.1 + 0.2
    assert json.loads(api.canonical_json({"v": value}))["v"] == value


def test_unfitted_model_info_rejected():
    with pytest.raises(ValueError, match="fit"):
        api.model_info(RootCauseAnalyzer())


# ------------------------------------------------ parsed requests keep maps


class _Key(str):
    """A ``str`` subclass: converted to ``str``, so its map is rebuilt."""


class _Float(float):
    """A ``float`` subclass: converted to ``float``, so its map is rebuilt."""


exact_floats = st.floats(allow_nan=True, allow_infinity=True)

keys = st.one_of(
    st.text(max_size=4),
    st.text(max_size=4).map(_Key),
    st.integers(-3, 3),
    st.none(),
    st.tuples(st.integers(0, 2)),
)

map_values = st.one_of(
    exact_floats,
    exact_floats.map(_Float),
    st.integers(-(2**70), 2**70),
    st.just(10**400),  # too large for a float
    st.booleans(),
    st.sampled_from(["1.5", " 2 ", "nan", "-Infinity", "1_0", "x"]),
    st.none(),
    st.lists(exact_floats, max_size=2),
    st.dictionaries(st.text(max_size=2), exact_floats, max_size=2),
)

#: mostly what a JSON body of floats decodes to, else anything a map may hold
float_dicts = st.one_of(
    st.dictionaries(st.text(max_size=6), exact_floats, max_size=6),
    st.dictionaries(st.text(max_size=6), exact_floats, max_size=6),
    st.dictionaries(keys, map_values, max_size=4),
)

#: what a spool record's float map may be: a dict, pairs, or not a map
float_maps = st.one_of(
    float_dicts,
    st.lists(st.tuples(st.text(max_size=3), map_values), max_size=3),
    st.text(max_size=3),
    st.none(),
)

scalars = st.one_of(exact_floats, st.integers(), st.booleans(), st.none(),
                    st.text(max_size=4))

SPOOL_FIELDS = {
    "features": float_maps,
    "app_metrics": float_maps,
    "mos": st.one_of(exact_floats, st.integers(), st.just("3.5"), st.none()),
    "severity": st.one_of(st.text(max_size=4), st.integers()),
    "fault_name": st.text(max_size=4),
    "fault_severity": st.text(max_size=4),
    "fault_location": st.text(max_size=4),
    "fault_intensity": float_maps,
    "meta": st.one_of(st.dictionaries(st.text(max_size=3), scalars, max_size=3),
                      st.lists(st.tuples(st.text(max_size=2), scalars), max_size=2)),
}


@st.composite
def spool_records(draw):
    missing = draw(st.sets(st.sampled_from(sorted(SPOOL_FIELDS)), max_size=1)
                   | st.just(set()))
    record = {"format": RECORD_V1}
    for name, values in SPOOL_FIELDS.items():
        if name not in missing:
            record[name] = draw(values)
    return record


wrapped_records = st.one_of(
    st.fixed_dictionaries({"features": float_dicts}),
    st.fixed_dictionaries({
        "features": float_dicts,
        "meta": st.one_of(st.dictionaries(st.text(max_size=3), scalars,
                                          max_size=3), st.text(max_size=2)),
    }),
)

#: a record of each shape, in proportions that leave most requests valid
wire_records = st.one_of(
    spool_records(),
    wrapped_records,
    wrapped_records,
    float_dicts,  # a bare feature map
    float_dicts,
    st.sampled_from([7, "x", None, [1.5]]),  # not a record
)


def _same(a, b):
    """Equal, with the same types, key types and key order (NaN == NaN)."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, dict):
        return (list(a) == list(b) and list(map(type, a)) == list(map(type, b))
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _exact(m):
    """Keys all exact ``str`` and values all exact ``float``."""
    return (type(m) is dict and all(type(k) is str for k in m)
            and all(type(v) is float for v in m.values()))


def _float_maps(wire_record, record):
    """(payload map, parsed record's map) pairs of one coerced record."""
    if isinstance(record, SessionRecord):
        return [(wire_record[name], getattr(record, name))
                for name in ("features", "app_metrics", "fault_intensity")]
    if isinstance(record, api.SessionInput):
        return [(wire_record["features"], record.features)]
    return [(wire_record, record)]


def _outcome(fn):
    try:
        return fn(), None
    except api.ApiError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(wire_records, max_size=3))
@example([{"a": 1.5, "b": float("nan")}])
@example([{"a": 1.5, "b": 2}])
@example([{"features": {"a": 1.5, _Key("b"): 2.5}, "meta": {"session_s": 9.0}}])
@example([{"features": {"a": _Float(1.5)}}])
@example([{"features": {"a": 10**400}}])
@example([{"a": True}])
@example([{}])
def test_parsed_request_matches_coerce_session(wire_list):
    """``from_dict`` keeps exact float maps; nothing else about it changes.

    Every record equals :func:`api.coerce_session`'s, field for field and
    type for type, or both raise the same :class:`api.ApiError` text; and
    a parsed record holds the payload's own map exactly when that map's
    keys are all ``str`` and its values all ``float``.
    """
    payload = {"schema": api.REQUEST_SCHEMA, "records": wire_list}
    got, got_error = _outcome(lambda: api.DiagnoseRequest.from_dict(payload).records)
    want, want_error = _outcome(lambda: [api.coerce_session(r) for r in wire_list])
    assert got_error == want_error
    if want_error is not None:
        return
    assert len(got) == len(want)
    for wire_record, g, w in zip(wire_list, got, want):
        assert _same(g, w), (g, w)
        for sent, kept in _float_maps(wire_record, g):
            assert (kept is sent) == _exact(sent), (sent, kept)
        for sent, copied in _float_maps(wire_record, w):
            assert copied is not sent


def test_request_records_share_the_decoded_maps(mini_campaign_records):
    """A decoded body of floats is scored on its own dicts, not copies."""
    spool = record_to_dict(mini_campaign_records[0])
    body = api.canonical_json({"schema": api.REQUEST_SCHEMA, "records": [
        spool,
        {"features": spool["features"], "meta": spool["meta"]},
        spool["features"],
        {"features": {"a": 1.5, "b": 2}},  # an int: rebuilt as a float
    ]})
    payload = wire.loads(body)
    spooled, wrapped, bare, with_int = api.DiagnoseRequest.from_dict(payload).records
    sent = payload["records"]
    assert spooled.features is sent[0]["features"]
    assert spooled.app_metrics is sent[0]["app_metrics"]
    assert spooled.meta == sent[0]["meta"] and spooled.meta is not sent[0]["meta"]
    assert wrapped.features is sent[1]["features"]
    assert bare is sent[2]
    assert with_int.features == {"a": 1.5, "b": 2.0}
    assert with_int.features is not sent[3]["features"]
    assert type(with_int.features["b"]) is float


def test_diagnose_stream_survives_a_source_that_reuses_one_dict(
        mini_analyzer, mini_campaign_records):
    """A stream may change a yielded dict and yield it again: each record
    is copied as it is coerced, so every report is its own record's."""
    records = mini_campaign_records[:7]

    def reused():
        payload = record_to_dict(records[0])
        for record in records:
            for key, value in record_to_dict(record).items():
                if isinstance(value, dict):
                    payload[key].clear()
                    payload[key].update(value)
                else:
                    payload[key] = value
            yield payload

    streamed = [r.to_dict()
                for r in api.diagnose_stream(mini_analyzer, reused(), chunk=4)]
    batched = [r.to_dict() for r in mini_analyzer.diagnose_batch(records)]
    assert streamed == batched
