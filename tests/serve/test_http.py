"""HTTP serving layer: endpoints, wire schema, hot swap, drain.

These tests drive a real :class:`DiagnosisServer` on a loopback socket
(see ``conftest.ServeHandle``) with plain ``http.client`` requests —
including the acceptance pin that served diagnoses are byte-identical,
as canonical JSON, to offline ``diagnose_batch`` on the same records.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
import repro.serve.http as serve_http
from repro.api import REQUEST_SCHEMA, RESPONSE_SCHEMA, canonical_json
from repro.core.diagnosis import RootCauseAnalyzer
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


@pytest.mark.parametrize("shape", ["spool", "features", "bare"])
def test_integer_too_large_for_a_float_gets_400(
        server, mini_campaign_records, shape):
    """``1`` and 400 zeros decodes to an int that ``float()`` cannot take."""
    record = record_to_dict(mini_campaign_records[0])
    name = next(iter(record["features"]))
    record["features"][name] = 10 ** 400
    wire_record = {
        "spool": record,
        "features": {"features": record["features"], "meta": record["meta"]},
        "bare": record["features"],
    }[shape]
    body = json.dumps({"schema": REQUEST_SCHEMA, "records": [wire_record]})
    assert "1" + "0" * 400 in body
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("POST", "/v1/diagnose", body=body)
        response = conn.getresponse()
        status, error = response.status, json.loads(response.read())["error"]
        conn.request("GET", "/healthz")  # same keep-alive connection
        health = conn.getresponse()
        health.read()
    finally:
        conn.close()
    assert status == 400, error
    assert "too large" in error
    assert health.status == 200


def _raw_exchange(server, raw, shut_wr=False):
    """Send raw bytes on a fresh connection; return everything until EOF."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(raw)
        if shut_wr:
            sock.shutdown(socket.SHUT_WR)
        return _read_to_eof(sock)


def _read_to_eof(sock):
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


@pytest.mark.parametrize(
    "length", ["abc", "-5", "+5", "1_0", "\x0b7", "\xb2", ""],
    ids=["non-numeric", "negative", "plus-sign", "underscore", "vertical-tab",
         "superscript-digit", "empty"])
def test_bad_content_length_gets_400_and_close(server, length):
    """A Content-Length that is not 1*DIGIT is answered, not dropped.

    Python's ``int()`` reads "+5", "1_0" and a vertical-tab-padded "7" as
    sizes; a proxy that does not would frame the stream differently.
    """
    raw = (f"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
           f"Content-Length: {length}\r\n\r\n").encode("latin-1")
    reply = _raw_exchange(server, raw, shut_wr=True)
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


@pytest.mark.parametrize("header, fragment", [
    (b"no colon here", "without ':'"),
    (b"Content-Length : 2", "invalid header field name"),
    (b"Content-Length\t: 2", "invalid header field name"),
    (b" Content-Length: 2", "invalid header field name"),
], ids=["no-colon", "space-before-colon", "tab-before-colon", "folded-line"])
def test_bad_header_line_gets_400_and_close(server, header, fragment):
    """A line without ':' or with whitespace before it is a framing error.

    RFC 9112 §5.1: whitespace between a field name and its colon is a
    400, never a header a proxy and this server might read differently.
    """
    raw = (b"POST /v1/diagnose HTTP/1.1\r\nHost: test\r\n"
           + header + b"\r\n\r\n{}")
    reply = _raw_exchange(server, raw, shut_wr=True)
    error = _single_error(reply, b"HTTP/1.1 400 Bad Request")
    assert fragment in error
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


def test_read_deadline_answers_stalled_request_and_closes_idle(
        server, monkeypatch):
    """A stalled header block gets one 408; an idle connection just closes."""
    monkeypatch.setattr(serve_http, "READ_TIMEOUT_S", 0.5)
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=30) as stalled, \
            socket.create_connection(address, timeout=30) as idle:
        stalled.sendall(b"GET /healthz HTTP/1.1\r\nHost: te")
        status, _ = server.request("GET", "/healthz")
        assert status == 200  # other connections are served meanwhile
        reply = _read_to_eof(stalled)
        assert _read_to_eof(idle) == b""
    error = _single_error(reply, b"HTTP/1.1 408 Request Timeout")
    assert "not read within 0.5 s" in error
    status, _ = server.request("GET", "/healthz")
    assert status == 200


def test_write_deadline_frees_a_client_that_never_reads(monkeypatch):
    """Pipelined requests whose replies are never read: the handler gives up.

    The client shrinks its receive buffer and pipelines ``GET /healthz``
    until the server stops reading.  The replies back up in the server's
    transport, so its handler waits in ``drain()``; after
    ``WRITE_TIMEOUT_S`` the connection is aborted, the handler exits, and
    a graceful drain no longer waits out its grace period.
    """
    monkeypatch.setattr(serve_http, "WRITE_TIMEOUT_S", 0.3)
    handle = ServeHandle(
        ModelRegistry(), ServeConfig(port=0, drain_grace_s=30.0)).start()
    try:
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", handle.port))
            sock.setblocking(False)
            burst = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" * 512
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:  # until the server stops reading
                if not select.select([], [sock], [], 0.5)[1]:
                    break
                try:
                    sock.send(burst)
                except BlockingIOError:
                    pass
                except ConnectionError:
                    break  # already aborted
            deadline = time.monotonic() + 10
            while handle.server._handlers and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not handle.server._handlers, "handler still waits in drain()"
            assert handle.server._inflight == 0
            t0 = time.monotonic()
            handle.stop()
            assert time.monotonic() - t0 < 5.0  # well inside the 30 s grace
    finally:
        handle.stop()


def test_read_deadline_does_not_cut_off_a_slow_diagnosis(
        server, monkeypatch, mini_campaign_records):
    """The deadline covers reading only: routing may outlast it."""
    monkeypatch.setattr(serve_http, "READ_TIMEOUT_S", 0.2)
    route = server.server._route

    async def slow_route(method, path, body):
        await asyncio.sleep(0.6)  # the loop keeps running past the deadline
        return await route(method, path, body)

    monkeypatch.setattr(server.server, "_route", slow_route)
    status, body = server.request(
        "POST", "/v1/diagnose", diagnose_payload(mini_campaign_records[:1]))
    assert status == 200
    assert len(body["diagnoses"]) == 1


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


#: a server whose diagnoses wait for SIGUSR1, with room for two in flight;
#: it prints its port, then one line per request that reaches the wait
HELD_SERVER = textwrap.dedent("""
    import asyncio, signal, sys
    import repro.serve.http as serve_http
    from repro.core.diagnosis import RootCauseAnalyzer
    from repro.serve import DiagnosisServer, ModelRegistry, ServeConfig

    serve_http.MAX_INFLIGHT = 2

    async def main():
        registry = ModelRegistry()
        registry.register("v1", RootCauseAnalyzer.load(sys.argv[1]))
        server = DiagnosisServer(registry, ServeConfig(port=0))
        release = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, release.set)
        submit = server.batcher.submit

        async def held(records):
            print("held", flush=True)
            await release.wait()
            return await submit(records)

        server.batcher.submit = held
        await server.start()
        print(server.port, flush=True)
        await server.run()

    asyncio.run(main())
""")


def test_requests_past_max_inflight_get_503_with_retry_after(
        tmp_path, mini_analyzer, mini_campaign_records):
    """Two held diagnoses fill the house: a third is refused at once.

    The refusal leaves its connection open and the status endpoints
    answering; once released, the held two are served the offline bytes,
    and SIGTERM still drains to exit 0.
    """
    model = tmp_path / "model.json"
    mini_analyzer.save(model)
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", HELD_SERVER, str(model)],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    conns = []
    try:
        port = int(proc.stdout.readline())
        conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                 for _ in range(3)]
        batches = [mini_campaign_records[:3], mini_campaign_records[3:5]]
        for conn, records in zip(conns, batches):
            conn.request("POST", "/v1/diagnose",
                         body=json.dumps(diagnose_payload(records)))
        assert [proc.stdout.readline() for _ in batches] == ["held\n"] * 2

        third = conns[2]
        t0 = time.monotonic()
        third.request("POST", "/v1/diagnose",
                      body=json.dumps(diagnose_payload(batches[0])))
        refused = third.getresponse()
        error = json.loads(refused.read())
        assert time.monotonic() - t0 < 5.0
        assert refused.status == 503
        assert refused.getheader("Retry-After") == str(serve_http.RETRY_AFTER_S)
        assert error["schema"] == ERROR_SCHEMA
        assert "more than 2 requests in flight" in error["error"]
        for path in ("/healthz", "/readyz"):  # same connection, still open
            third.request("GET", path)
            answer = third.getresponse()
            answer.read()
            assert answer.status == 200, path

        proc.send_signal(signal.SIGUSR1)
        offline = RootCauseAnalyzer.load(model)
        for conn, records in zip(conns, batches):
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200
            want = [r.to_dict() for r in offline.diagnose_batch(records)]
            assert canonical_json(body["diagnoses"]) == canonical_json(want)
        third.request("POST", "/v1/diagnose",
                      body=json.dumps(diagnose_payload(batches[1])))
        assert third.getresponse().status == 200
    finally:
        for conn in conns:
            conn.close()
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(30)
        proc.stdout.close()
    assert returncode == 0
