"""HTTP serving layer: endpoints, wire schema, hot swap, drain.

These tests drive a real :class:`DiagnosisServer` on a loopback socket
(see ``conftest.ServeHandle``) with plain ``http.client`` requests —
including the acceptance pin that served diagnoses are byte-identical,
as canonical JSON, to offline ``diagnose_batch`` on the same records.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.api import REQUEST_SCHEMA, RESPONSE_SCHEMA, canonical_json
from repro.obs.telemetry import tracing
from repro.pipeline.records import record_to_dict
from repro.serve import ModelRegistry, ServeConfig
from repro.serve.http import ERROR_SCHEMA, MAX_HEADER_LINES
from repro.wire import MAX_DEPTH
from tests.serve.conftest import ServeHandle


def diagnose_payload(records):
    return {"schema": REQUEST_SCHEMA,
            "records": [record_to_dict(r) for r in records]}


def test_healthz_and_readyz(server):
    status, body = server.request("GET", "/healthz")
    assert status == 200
    assert body == {"draining": False, "status": "ok"}
    status, body = server.request("GET", "/readyz")
    assert status == 200
    assert body["status"] == "ready"
    assert body["model"] == "v1"


def test_served_diagnoses_bit_identical_to_offline_batch(
        server, mini_analyzer, mini_campaign_records):
    records = mini_campaign_records[:12]
    status, body = server.request(
        "POST", "/v1/diagnose", diagnose_payload(records))
    assert status == 200
    assert body["schema"] == RESPONSE_SCHEMA
    assert body["model"]["version"] == "v1"
    offline = [r.to_dict() for r in mini_analyzer.diagnose_batch(records)]
    assert canonical_json(body["diagnoses"]) == canonical_json(offline)


def test_bare_feature_records_accepted(server, mini_campaign_records):
    record = mini_campaign_records[0]
    payload = {"schema": REQUEST_SCHEMA,
               "records": [dict(record.features),
                           {"features": dict(record.features),
                            "meta": {"session_s": 12.0}}]}
    status, body = server.request("POST", "/v1/diagnose", payload)
    assert status == 200
    assert len(body["diagnoses"]) == 2
    for entry in body["diagnoses"]:
        assert entry["severity"] in ("good", "mild", "severe")


def test_empty_request_is_ok(server):
    status, body = server.request(
        "POST", "/v1/diagnose", {"schema": REQUEST_SCHEMA, "records": []})
    assert status == 200
    assert body["diagnoses"] == []


@pytest.mark.parametrize("payload, fragment", [
    ("not json", "not valid JSON"),
    ({"records": []}, "unsupported request schema"),
    ({"schema": REQUEST_SCHEMA, "records": "nope"}, "must be a list"),
    ({"schema": REQUEST_SCHEMA, "records": [3]}, "must be an object"),
    ({"schema": REQUEST_SCHEMA,
      "records": [{"features": {"x": "NaN-ish-string"}}]}, "non-numeric"),
])
def test_malformed_requests_get_400(server, payload, fragment):
    if isinstance(payload, str):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/v1/diagnose", body=payload)
            response = conn.getresponse()
            status, body = response.status, response.read().decode()
        finally:
            conn.close()
    else:
        status, body = server.request("POST", "/v1/diagnose", payload)
        body = canonical_json(body)
    assert status == 400
    assert fragment in body


def _raw_exchange(server, raw, shut_wr=False):
    """Send raw bytes on a fresh connection; return everything until EOF."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(raw)
        if shut_wr:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return reply
            reply += chunk


def _single_error(reply, status_line):
    """The one response in ``reply``: its status line and error payload."""
    assert reply.count(b"HTTP/1.1 ") == 1, reply
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n", 1)[0] == status_line
    payload = json.loads(body)
    assert payload["schema"] == ERROR_SCHEMA
    return payload["error"]


@pytest.mark.parametrize("length", ["abc", "-5"], ids=["non-numeric", "negative"])
def test_bad_content_length_gets_400_and_close(server, length):
    """A Content-Length that is not a size is answered, not dropped."""
    raw = (f"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
           f"Content-Length: {length}\r\n\r\n").encode("latin-1")
    reply = _raw_exchange(server, raw)
    assert "Content-Length" in _single_error(reply, b"HTTP/1.1 400 Bad Request")
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_conflicting_content_length_gets_one_400_and_close(server):
    """Two different lengths: one 400, the body never parsed as a request."""
    body = canonical_json({"schema": REQUEST_SCHEMA, "records": []}).encode()
    raw = (b"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
           b"Content-Length: %d\r\nContent-Length: 0\r\n\r\n" % len(body)) + body
    reply = _raw_exchange(server, raw, shut_wr=True)
    error = _single_error(reply, b"HTTP/1.1 400 Bad Request")
    assert "conflicting Content-Length" in error
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_header_line_without_colon_gets_400_and_close(server):
    """A header line with no ':' is a framing error, not a header."""
    raw = b"GET /healthz HTTP/1.1\r\nHost: test\r\nno colon here\r\n\r\n"
    reply = _raw_exchange(server, raw, shut_wr=True)
    error = _single_error(reply, b"HTTP/1.1 400 Bad Request")
    assert "without ':'" in error
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_overlong_header_line_gets_400_and_close(server):
    """A header line past the 64 KiB read limit is answered, not dropped."""
    raw = (b"GET /healthz HTTP/1.1\r\nHost: test\r\nX-Big: "
           + b"a" * (70 * 1024) + b"\r\n\r\n")
    reply = _raw_exchange(server, raw)
    assert "too long" in _single_error(reply, b"HTTP/1.1 400 Bad Request")
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_chunked_request_gets_one_411_and_close(server):
    """A Transfer-Encoding body is refused once, never parsed as a request."""
    raw = (b"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n"
           b"2\r\n{}\r\n0\r\n\r\n")
    reply = _raw_exchange(server, raw)
    error = _single_error(reply, b"HTTP/1.1 411 Length Required")
    assert "Transfer-Encoding" in error
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_too_many_header_lines_gets_431_and_close(server):
    lines = "".join(f"X-H{i}: v\r\n" for i in range(MAX_HEADER_LINES + 50))
    raw = f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode("latin-1")
    reply = _raw_exchange(server, raw)
    error = _single_error(
        reply, b"HTTP/1.1 431 Request Header Fields Too Large")
    assert str(MAX_HEADER_LINES) in error
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_deeply_nested_body_gets_400(server):
    """Nesting past the decoder's depth limit is a bad body, not a 500."""
    body = b"[" * 100_000
    raw = (b"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
           b"Content-Length: %d\r\n\r\n" % len(body)) + body
    reply = _raw_exchange(server, raw, shut_wr=True)
    error = _single_error(reply, b"HTTP/1.1 400 Bad Request")
    assert "not valid JSON" in error and f"deeper than {MAX_DEPTH}" in error
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_truncated_header_block_is_not_routed(server):
    """EOF before the blank line ends the connection without a response."""
    with tracing() as tel:
        reply = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: te", shut_wr=True)
        assert reply == b""
        assert "serve.requests" not in tel.counters
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_malformed_record_fails_only_its_request(server, mini_campaign_records):
    """A bad record 400s its own request; a concurrent good one is served."""
    good = diagnose_payload(mini_campaign_records[:2])
    bad = {"schema": REQUEST_SCHEMA, "records": [{"features": {"x": None}}]}
    status_bad, _ = server.request("POST", "/v1/diagnose", bad)
    status_good, body_good = server.request("POST", "/v1/diagnose", good)
    assert status_bad == 400
    assert status_good == 200
    assert len(body_good["diagnoses"]) == 2


def test_unknown_path_and_method(server):
    status, body = server.request("GET", "/nope")
    assert status == 404
    status, body = server.request("POST", "/healthz")
    assert status == 405
    assert "GET" in body["error"]


def test_models_endpoint_and_hot_swap(server, mini_campaign_records):
    status, body = server.request("GET", "/v1/models")
    assert status == 200
    assert body["active"] == "v1"
    assert [m["version"] for m in body["versions"]] == ["v1"]
    assert body["batcher"]["requests"] >= 0

    # hot swap: register v2 directly on the registry, then activate by HTTP
    server.registry.register("v2", server.registry.get("v1"))
    status, body = server.request(
        "POST", "/v1/models/activate", {"version": "v2"})
    assert status == 200
    assert body == {"active": "v2", "previous": "v1"}
    status, body = server.request(
        "POST", "/v1/diagnose", diagnose_payload(mini_campaign_records[:1]))
    assert status == 200
    assert body["model"]["version"] == "v2"

    status, body = server.request(
        "POST", "/v1/models/activate", {"version": "v99"})
    assert status == 404
    status, body = server.request("POST", "/v1/models/activate", {"nope": 1})
    assert status == 400


def test_no_model_means_not_ready():
    handle = ServeHandle(ModelRegistry(), ServeConfig(port=0)).start()
    try:
        status, body = handle.request("GET", "/readyz")
        assert status == 503
        assert body["status"] == "unavailable"
        status, body = handle.request(
            "POST", "/v1/diagnose", {"schema": REQUEST_SCHEMA, "records": []})
        assert status == 503
        assert "no model registered" in body["error"]
        status, _ = handle.request("GET", "/healthz")
        assert status == 200  # alive, just not ready
    finally:
        handle.stop()


def test_graceful_drain_stops_serving(server, mini_campaign_records):
    status, _ = server.request(
        "POST", "/v1/diagnose", diagnose_payload(mini_campaign_records[:1]))
    assert status == 200
    server.stop()  # requests drain, listener closes, loop exits cleanly
    with pytest.raises(OSError):
        server.request("GET", "/healthz")
