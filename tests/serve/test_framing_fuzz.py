"""Generated hostile input on the serve socket: one 4xx and a close, always.

Malformed request lines, header blocks, ``Content-Length`` /
``Transfer-Encoding`` combinations and bodies are each answered by
exactly one 4xx with an error payload, after which the connection
closes (the client half-closes after sending).  A stream cut off before
its request is complete is never routed: EOF inside the header block or
the body closes the connection without a response, and a cut request
line is either dropped the same way or refused with one 400.  Slow
clients change nothing: a valid request dribbled in chunks down to one
byte gets the bytes the one-shot send gets, and a client that stalls
past ``READ_TIMEOUT_S`` gets one 408 and a close once its request line
is in (before that, the silent close).  After every case a fresh
``GET /healthz`` still answers 200.
"""

from __future__ import annotations

import itertools
import json
import socket
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.serve.http as serve_http
from repro.api import REQUEST_SCHEMA
from repro.record import record_to_dict
from repro.serve import ModelRegistry
from repro.serve.http import ERROR_SCHEMA, MAX_BODY_BYTES
from repro.wire import MAX_DEPTH
from tests.serve.conftest import ServeHandle

FUZZ = settings(max_examples=60, deadline=None)
#: each slow-client example takes real time (pauses, a read deadline)
SLOW = settings(max_examples=20, deadline=None)

#: method -> the paths that answer it with a 2xx on an empty body
OK_ROUTES = {"GET": ("/healthz", "/readyz", "/v1/models")}


@pytest.fixture(scope="module")
def port(mini_analyzer):
    registry = ModelRegistry()
    registry.register("v1", mini_analyzer)
    handle = ServeHandle(registry).start()
    yield handle.port
    handle.stop()


def exchange(port, raw, chunks=(), half_close=True):
    """Send ``raw``, half-close unless told not to, and return every byte
    until the server closes.  With ``chunks``, ``raw`` goes out in pieces
    of those sizes, cycled, with a pause between pieces."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sizes = itertools.cycle(chunks or [len(raw)])
        while raw:
            size = next(sizes)
            piece, raw = raw[:size], raw[size:]
            sock.sendall(piece)
            if raw:
                time.sleep(0.001)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)  # a server that never closes times out
            if not chunk:
                return reply
            reply += chunk


def responses(reply):
    """``[(status, body), ...]``: the responses in ``reply``, framed by length."""
    out = []
    while reply:
        head, sep, rest = reply.partition(b"\r\n\r\n")
        assert sep, reply
        lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines[1:])
        length = int(fields["Content-Length"])
        out.append((int(lines[0].split()[1]), rest[:length]))
        reply = rest[length:]
    return out


@pytest.fixture(scope="module")
def record(mini_campaign_records):
    """A spool record cut to five features (a falsifying example prints it)."""
    record = record_to_dict(mini_campaign_records[0])
    record["features"] = dict(list(record["features"].items())[:5])
    return record


def assert_one_4xx(port, raw):
    [(status, body)] = responses(exchange(port, raw))
    assert 400 <= status < 500, (status, body)
    assert json.loads(body)["schema"] == ERROR_SCHEMA
    assert_healthy(port)


def assert_healthy(port):
    raw = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    assert [status for status, _ in responses(exchange(port, raw))] == [200]


def post(body, headers=None):
    if headers is None:
        headers = [b"Content-Length: %d" % len(body)]
    head = b"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
    return head + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body


def request_body(records):
    return json.dumps({"schema": REQUEST_SCHEMA, "records": records}).encode()


# ---------------------------------------------------------------- request line

latin1 = st.characters(min_codepoint=0, max_codepoint=255, blacklist_characters="\n")

request_lines = st.one_of(
    st.text(latin1, min_size=1, max_size=40),
    st.lists(
        st.sampled_from(["GET", "POST", "get", "PUT", "G\x00T", "/", "*",
                         "/healthz", "/v1/diagnose?x", "http://h/readyz",
                         "HTTP/1.1", "HTTP/9", "\x85", "\xa0"]),
        max_size=5,
    ).map(" ".join),
)


@FUZZ
@given(line=request_lines)
def test_malformed_request_line(port, line):
    raw = line.encode("latin-1")
    assume(raw.strip())  # a blank first line is an idle connection's end
    parts = line.split()
    assume(not (len(parts) == 3 and parts[1].split("?", 1)[0]
                in OK_ROUTES.get(parts[0].upper(), ())))
    assert_one_4xx(port, raw + b"\r\nHost: test\r\n\r\n")


# ---------------------------------------------------------------- header block

BODY = request_body([])  # a valid request: only the headers can be wrong
LENGTH = b"%d" % len(BODY)

good_headers = st.sampled_from([
    b"Accept: */*", b"X-Trace: a:b:c", b"Connection: keep-alive",
    b"Content-Length: " + LENGTH, b"content-length:" + LENGTH + b"  ",
])

bad_headers = st.one_of(
    st.binary(min_size=1, max_size=20).filter(
        lambda b: b":" not in b and b"\n" not in b and b"\r" not in b),
    st.sampled_from([
        b"Content-Length : " + LENGTH,  # whitespace before the colon
        b"X-A\t: b",
        b" X-Folded: b",
        b"X(A): b",
        b": no name",
        b"Transfer-Encoding: chunked",
        b"Transfer-Encoding: identity",
        b"transfer-encoding: gzip, chunked",
        b"Content-Length: " + LENGTH + b"\r\nContent-Length: 0",  # conflict
        b"Content-Length: %d" % (MAX_BODY_BYTES + 1),
    ]),
    st.sampled_from(["abc", "-1", "+5", "1_0", "", "0x10", "\xb2", " 1 2"]).map(
        lambda v: b"Content-Length: " + v.encode("latin-1")),
)


@FUZZ
@given(
    good=st.lists(good_headers, max_size=4),
    bad=st.lists(bad_headers, min_size=1, max_size=3),
    data=st.data(),
)
def test_malformed_header_block(port, good, bad, data):
    headers = data.draw(st.permutations(good + bad))
    assert_one_4xx(port, post(BODY, headers))


# ------------------------------------------------------------------------ body

#: a value ``float()`` refuses: words, huge ints, containers, null
bad_values = st.one_of(
    st.text(st.characters(whitelist_categories=("L",)), min_size=1, max_size=8),
    st.integers(min_value=400, max_value=600).map(lambda n: 10**n),
    st.integers(min_value=400, max_value=600).map(lambda n: -(7**n)),
    st.lists(st.floats(allow_nan=False), max_size=2),
    st.dictionaries(st.text(max_size=3), st.floats(allow_nan=False), max_size=2),
    st.none(),
)


def _not_a_float(value):
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return True
    return False


@st.composite
def bad_records(draw, record):
    """A spool, features+meta or bare-map record with one refused value."""
    features = dict(record["features"])
    name = draw(st.sampled_from(sorted(features)))
    features[name] = draw(bad_values.filter(_not_a_float))
    return draw(st.sampled_from([
        dict(record, features=features),
        {"features": features, "meta": record["meta"]},
        features,
    ]))


def deep(depth, closed):
    return b"[" * depth + (b"]" * depth if closed else b"")


@FUZZ
@given(data=st.data())
def test_bad_body(port, record, data):
    good = record["features"]
    body = data.draw(st.one_of(
        st.binary(max_size=30).map(lambda b: b + b"\xff\xfe" + b),  # bad UTF-8
        st.text(max_size=30).map(str.encode),  # mostly not JSON
        st.builds(deep, st.integers(MAX_DEPTH + 1, 4 * MAX_DEPTH), st.booleans()),
        st.lists(st.one_of(st.integers(), st.text(max_size=4), st.none()),
                 min_size=1, max_size=1).map(request_body),
        st.tuples(st.lists(st.just(good), max_size=2),
                  bad_records(record)).map(lambda t: request_body(t[0] + [t[1]])),
        st.sampled_from([b"{}", b"[]", b'{"schema": "x", "records": []}',
                         b'{"schema": "%s", "records": {}}' % REQUEST_SCHEMA.encode(),
                         b'{"schema": "%s", "records": [{"features": {}, "meta": 1}]}'
                         % REQUEST_SCHEMA.encode()]),
    ))
    assume(body != BODY)
    assert_one_4xx(port, post(body))


# ----------------------------------------------------------- truncated streams


@FUZZ
@given(data=st.data())
def test_truncated_stream(port, record, data):
    features = record["features"]
    full = data.draw(st.sampled_from([
        b"GET /healthz HTTP/1.1\r\nHost: test\r\nAccept: */*\r\n\r\n",
        post(request_body([features])),
        post(b'{"version": "v1"}').replace(b"/v1/diagnose", b"/v1/models/activate"),
    ]))
    cut = data.draw(st.integers(0, len(full) - 1))
    raw = full[:cut]
    reply = exchange(port, raw)
    line = raw.decode("latin-1")
    if b"\n" in raw or not raw.strip() or len(line.split()) == 3:
        assert reply == b""  # EOF before the request is complete: not routed
    else:
        [(status, _body)] = responses(reply)  # a cut request line
        assert status == 400
    assert_healthy(port)


# ----------------------------------------------------------------- slow clients


def valid_requests(record):
    """Requests whose reply bytes depend on nothing but the request."""
    return st.sampled_from([
        b"GET /healthz HTTP/1.1\r\nHost: test\r\nAccept: */*\r\n\r\n",
        b"GET /readyz HTTP/1.1\r\nHost: test\r\n\r\n",
        post(request_body([record["features"]])),
        post(request_body([record, record["features"]])),
    ])


@SLOW
@given(data=st.data())
def test_dribbled_request_gets_the_one_shot_reply(port, record, data):
    full = data.draw(valid_requests(record))
    chunks = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=8))
    one_shot = exchange(port, full)
    assert [status for status, _ in responses(one_shot)] == [200]
    assert exchange(port, full, chunks) == one_shot
    assert_healthy(port)


@SLOW
@given(data=st.data())
def test_stalled_request_gets_one_408_or_the_silent_close(port, record, data):
    full = data.draw(valid_requests(record))
    cut = data.draw(st.integers(0, len(full) - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_http, "READ_TIMEOUT_S", 0.2)
        reply = exchange(port, full[:cut], half_close=False)
    if b"\n" in full[:cut]:  # the request line is in: answered, then closed
        [(status, body)] = responses(reply)
        assert status == 408
        assert json.loads(body)["schema"] == ERROR_SCHEMA
    else:
        assert reply == b""
    assert_healthy(port)
