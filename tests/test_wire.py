"""``repro.wire.loads`` is ``json.loads``: same values, types, NaNs and errors.

Every comparison goes through :func:`shape`, which re-encodes a decoded
value with ``json.dumps``.  For the types JSON decodes to that spells it
out node by node: key order, ``1`` vs ``1.0`` vs ``true``, floats by
``repr`` (``-0.0`` keeps its sign) and ``NaN`` where it sits.  The one
deliberate difference, nesting deeper than ``MAX_DEPTH``, has its own
tests at the bottom.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.wire import MAX_DEPTH


def shape(value):
    return json.dumps(value)


def outcome(loads, text):
    try:
        return ("ok", shape(loads(text)))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def assert_twin(text):
    assert outcome(wire.loads, text) == outcome(json.loads, text)


# ------------------------------------------------------------------ strategies

LONE_SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
STRINGS = st.text(st.one_of(st.characters(), LONE_SURROGATES), max_size=8)
INT_EDGES = [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1,
             10**19, -(10**19), 10**40, -(10**40)]
FLOAT_EDGES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
               2.0**63, -(2.0**63), 1e19, 5e-324, 1.7976931348623157e308]
LEAVES = st.one_of(
    STRINGS,
    st.booleans(),
    st.none(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(INT_EDGES),
    st.floats(),
    st.sampled_from(FLOAT_EDGES),
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(STRINGS, children, max_size=5),
    max_leaves=40,
)
#: number literals, canonical or not, including ones no ``json.dumps`` writes
NUMBERS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)
#: characters that make or break JSON syntax
NOISE = st.sampled_from(list('[]{},:"\\ 0123456789-+.eEaNI\x00\x1f\t\n'))


@st.composite
def documents(draw):
    value = draw(VALUES)
    ascii_only = draw(st.booleans())
    indent = draw(st.sampled_from([None, 0, 2]))
    return json.dumps(value, ensure_ascii=ascii_only, indent=indent)


@st.composite
def broken_documents(draw):
    """A valid document with one deletion, insertion or truncation."""
    text = draw(documents())
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["delete", "insert", "truncate"]))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(NOISE) + text[at:]
    return text[:at]


@settings(max_examples=400, deadline=None)
@given(documents())
def test_documents_decode_like_json(text):
    assert_twin(text)


@settings(max_examples=300, deadline=None)
@given(NUMBERS)
def test_number_literals_decode_like_json(text):
    assert_twin(text)
    assert_twin(f"[{text}]")


@settings(max_examples=400, deadline=None)
@given(broken_documents())
def test_broken_documents_fail_like_json(text):
    assert_twin(text)


# ------------------------------------------------------------------ edge cases

EDGES = [
    "NaN", "Infinity", "-Infinity", "[NaN, Infinity, -Infinity]",
    "1e400", "-1e400", "1e-400", "-0", "-0.0", "0.0", "1E5", "1e+19",
    "-9223372036854775809", "-9223372036854775808", "9223372036854775807",
    "9223372036854775808", "18446744073709551615", "18446744073709551616",
    "123456789012345678901234567890", "[1, -9223372036854775809]",
    '{"big": 18446744073709551616, "ok": 1.5}',
    '"\\ud800"', '"\\udfff"', '"a\\udc00b"', '"\\ud83d\\ude00"', '"\\u0000"',
    '{"a": 1, "b": 2, "a": 3}', '{"a": {"x": 1}, "a": [2]}',
    '"\x01"', '"a\nb"', '"\x7f"',
    "[1,]", '{"a": 1,}', "[,1]", "01", "-01", "1.", ".5", "+1", "1e", "1e+",
    "", " ", "\ufeff[1]", "[1] x", "[1]]", "nan", "inf", "True", "None",
    "'a'", '{"a" 1}', '{1: 2}', "[1 2]", '"unterminated', '"\\x41"', '"\\u12"',
    "\x0c1", "1\x0c", " \t\r\n[1] \t\r\n",
    "1" * 5000, "[" + "1" * 5000 + "]",
    "[" * MAX_DEPTH + "]" * MAX_DEPTH,
    '{"a":' * MAX_DEPTH + "1" + "}" * MAX_DEPTH,
    '["' + "[" * (2 * MAX_DEPTH) + '"]',  # brackets inside a string
    "[" + "[]," * (2 * MAX_DEPTH) + "[]]",  # many brackets, little depth
    "[1 " + "[" * (2 * MAX_DEPTH),  # an error before the limit wins
    "[] " + "[" * (2 * MAX_DEPTH),
    "[" * MAX_DEPTH + "1 []",  # the error is at the bracket itself
    "[" * 500 + '"' + "[" * 20 + "\x01",  # brackets in an unterminated string
    "[" * 500 + '"' + "[" * 20 + '\x01"' + "]" * 500,
]


@pytest.mark.parametrize("text", EDGES, ids=lambda text: repr(text)[:24])
def test_edge_cases_decode_like_json(text):
    assert_twin(text)


def test_out_of_range_integers_stay_integers():
    for value in INT_EDGES:
        got = wire.loads(json.dumps({"v": [value]}))["v"][0]
        assert type(got) is int and got == value


def test_plain_documents_skip_the_stdlib():
    """A spool-like line never reaches the stdlib parser (the fast path)."""
    line = json.dumps({"format": "repro-record-v1", "n": 7, "meta": {"a": "x"},
                       "features": {f"f{i}": i / 7 for i in range(400)}})
    want = json.loads(line)
    with mock.patch.object(wire.json, "loads", side_effect=AssertionError):
        assert wire.loads(line) == want


# ----------------------------------------------------------------- depth limit


WIDE = "[]," * 5000  # more containers than orjson is trusted with


@pytest.mark.parametrize("text", [
    "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1),  # json.loads accepts it
    "[" * (MAX_DEPTH + 1),  # unterminated
    "[" * 100_000,  # json.loads raises RecursionError
    "[" * 1_000_000 + "]" * 1_000_000,  # orjson alone overflows the C stack
    "[" * (MAX_DEPTH + 100) + "x",  # an error past the limit
    "[" + WIDE + "[" * 600 + "]" * 601,
    '{"k": [' + '{"a": [' * MAX_DEPTH + "]}" * MAX_DEPTH + "]}",
], ids=["closed", "open", "100k", "million", "late-error", "wide", "mixed"])
def test_deeper_than_max_depth_is_a_decode_error(text):
    with pytest.raises(json.JSONDecodeError) as info:
        wire.loads(text)
    assert info.value.msg == f"Nesting deeper than {MAX_DEPTH} levels"
    at = info.value.pos  # the first bracket that opens level MAX_DEPTH + 1
    assert text[at] in "[{"
    before = text[:at]
    opened = before.count("[") + before.count("{")
    assert opened - before.count("]") - before.count("}") == MAX_DEPTH


def test_many_shallow_containers_decode_like_json():
    assert_twin("[" + WIDE + "[]]")
    assert_twin("[" + WIDE + "NaN]")
    assert_twin("[" + WIDE + "[1 2]]")
