"""The asyncio HTTP serving layer: diagnosis as a service.

One process, one event loop, no framework: :class:`DiagnosisServer`
speaks enough HTTP/1.1 (keep-alive, Content-Length bodies; any
``Transfer-Encoding`` gets a 411) to serve the
``repro.api`` wire schema at production rates, with every request
funnelled through the :class:`~repro.serve.batcher.MicroBatcher` onto
the vectorized ``diagnose_batch`` path of whatever model the
:class:`~repro.serve.registry.ModelRegistry` has active.

Endpoints
---------

``POST /v1/diagnose``
    Body: ``repro-diagnose-request-v1``.  Response:
    ``repro-diagnose-response-v1`` whose ``diagnoses`` are canonically
    byte-identical to offline ``diagnose_batch`` on the same records.
    With more than :data:`MAX_INFLIGHT` requests read but not yet
    answered, it answers 503 with ``Retry-After`` at once, so overload
    shows as refusals a client can retry, not as growing latency.
``GET /healthz``
    Liveness: 200 as long as the process can answer at all (also while
    draining — the process is alive, just finishing up).
``GET /readyz``
    Readiness: 200 only with an active model and not draining; 503
    otherwise, so a load balancer stops routing before shutdown.
``GET /v1/models``
    Loaded versions, the active one, and batcher statistics.
``POST /v1/models/activate``
    Body ``{"version": "v7"}``: hot-swap the active model between
    batches (a flush never straddles a swap — both run on the loop).

Shutdown is *graceful drain*: SIGTERM (or SIGINT) stops the listener,
turns ``/readyz`` red, flushes the batcher, lets in-flight requests
finish inside a grace period, then closes idle keep-alive connections
and exits 0.  Per-request latency/status land in the ``repro.obs``
registry via ``record_span`` (the sanctioned non-lexical span API — a
request's lifetime spans awaits, so a ``with`` span cannot express it).
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, cast

from repro import wire
from repro.api import (
    ApiError,
    DiagnoseRequest,
    DiagnoseResponse,
    canonical_json,
)
from repro.core.diagnosis import DiagnosisReport
from repro.obs.telemetry import get_telemetry
from repro.schemas import SERVE_ERROR_V1
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import ModelRegistry, RegistryError

ERROR_SCHEMA = SERVE_ERROR_V1

#: refuse request bodies larger than this (a fleet record is ~2 KB)
MAX_BODY_BYTES = 32 * 1024 * 1024

#: refuse requests with more header lines than this
MAX_HEADER_LINES = 100

#: a request must be read in full within this many seconds of the server
#: starting to wait for it (idle keep-alive time counts); routing is not
#: timed, so a slow diagnosis is never cut off
READ_TIMEOUT_S = 30.0

#: once a response backs up in the transport's buffer (a client that
#: pipelines requests and never reads the replies), it must drain within
#: this many seconds or the connection is aborted; a reply that goes
#: straight to the socket arms no timer
WRITE_TIMEOUT_S = 30.0

#: most requests the server holds read but not yet answered (every
#: endpoint counts); a ``/v1/diagnose`` request past it is refused with a
#: 503.  A 64-record request takes ~5 ms, so a full house waits ~0.3 s.
MAX_INFLIGHT = 64

#: seconds a request refused for :data:`MAX_INFLIGHT` is told to wait
RETRY_AFTER_S = 1

#: RFC 9110 §5.6.2 token: a field name, with no whitespace before its colon
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Terminate one request with a status + message.

    Raised while routing, the connection lives on; raised while reading
    the request, the framing is lost and the connection closes after
    the answer.
    """

    def __init__(
        self, status: int, message: str, retry_after: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class _ReadDeadline:
    """Bounds the time one connection takes to deliver its next request.

    :meth:`arm` starts one ``call_later`` when the server starts waiting
    for a request; :meth:`disarm` cancels it before the request is
    routed.  If it fires first, it cancels the connection's handler task,
    which then answers 408 if the request line was in, else closes
    silently.  A timer per request, not ``wait_for`` per read, so a
    request costs one timer instead of a task per line.
    """

    __slots__ = ("task", "handle", "expired", "request_line")

    def __init__(self, task: "asyncio.Task[None]") -> None:
        self.task = task
        self.handle: Optional[asyncio.Handle] = None
        self.expired = False
        #: set by the reader once the request line is in
        self.request_line = False

    def arm(self) -> None:
        self.request_line = False
        self.handle = self.task.get_loop().call_later(READ_TIMEOUT_S, self._expire)

    def disarm(self) -> None:
        if self.handle is not None:
            self.handle.cancel()

    def _expire(self) -> None:
        self.expired = True
        self.task.cancel()

    def caused(self) -> bool:
        """Whether a ``CancelledError`` came from this deadline alone.

        Like ``asyncio.timeout``: on Python 3.11+ ``uncancel`` tells the
        deadline's cancel apart from any other, which must propagate.
        """
        if not self.expired:
            return False
        uncancel = getattr(self.task, "uncancel", None)
        return uncancel is None or uncancel() == 0


async def _drain(writer: asyncio.StreamWriter) -> None:
    """``writer.drain()``, aborting the connection after ``WRITE_TIMEOUT_S``.

    A transport is paused for writing only while its buffer is above the
    low-water mark (it resumes at or below it), so below the mark the
    drain returns at once and no timer is armed.  On expiry the transport
    is aborted, which wakes the drain; the handler then sees a
    ``ConnectionResetError`` and closes like any lost connection.
    """
    transport = writer.transport
    if transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[0]:
        await writer.drain()
        return
    timer = asyncio.get_running_loop().call_later(WRITE_TIMEOUT_S, transport.abort)
    try:
        await writer.drain()
    finally:
        timer.cancel()
    if transport.is_closing():
        raise ConnectionResetError(
            f"response not written within {WRITE_TIMEOUT_S:g} s")


@dataclass
class ServeConfig:
    """Knobs for one serving process."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 picks an ephemeral port (see DiagnosisServer.port)
    max_batch: int = 64
    drain_grace_s: float = 5.0


class DiagnosisServer:
    """A long-lived diagnosis service bound to one model registry."""

    def __init__(
        self, registry: ModelRegistry, config: Optional[ServeConfig] = None
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.batcher: MicroBatcher = MicroBatcher(
            self._score_batch, max_batch=self.config.max_batch
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: "Set[asyncio.Task[None]]" = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._draining = False
        self._stop: Optional[asyncio.Event] = None

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind and start accepting connections (does not block)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )

    async def drain(self) -> None:
        """Graceful shutdown: finish everything in flight, then stop.

        Ordering matters: readiness goes red first (load balancers stop
        routing), the listener closes (no new connections), the batcher
        flushes (queued windows score now), in-flight requests get
        ``drain_grace_s`` to complete, and only then are surviving
        keep-alive connections closed.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.batcher.flush("drain")
        deadline = time.perf_counter() + self.config.drain_grace_s
        while self._inflight and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()  # idle keep-alive connections see EOF and exit
        pending = [task for task in self._handlers if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        get_telemetry().event("serve.drained", inflight=self._inflight)

    def request_stop(self) -> None:
        """Ask :meth:`run` to drain and return (signal-handler safe)."""
        if self._stop is not None:
            self._stop.set()

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`), then drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        hooked: List[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop: rely on request_stop()
        try:
            await self._stop.wait()
            await self.drain()
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)

    # ------------------------------------------------------------- the model

    def _score_batch(
        self, records: Sequence[object]
    ) -> List[Tuple[object, str]]:
        """The batcher's runner: score on the active model, tag the version.

        A flush runs synchronously on the loop, and so does activation,
        so every record in one flush scores on the same version — the
        tag tells each response exactly which model produced it, even
        across a hot swap.
        """
        analyzer = self.registry.get()
        version = self.registry.active_version or "default"
        reports = analyzer.diagnose_batch(records)
        return [(report, version) for report in reports]

    # ---------------------------------------------------------------- routes

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {"status": "ok", "draining": self._draining}
        if path == "/readyz":
            self._require(method, "GET")
            ready = not self._draining and self.registry.active_version is not None
            status = 200 if ready else 503
            return status, {
                "status": "ready" if ready else "unavailable",
                "draining": self._draining,
                "model": self.registry.active_version,
            }
        if path == "/v1/models":
            self._require(method, "GET")
            return 200, {
                "active": self.registry.active_version,
                "versions": [
                    self.registry.info(v).to_dict() for v in self.registry.versions()
                ],
                "batcher": dict(self.batcher.stats),
            }
        if path == "/v1/models/activate":
            self._require(method, "POST")
            payload = self._parse_json(body)
            version = payload.get("version") if isinstance(payload, dict) else None
            if not isinstance(version, str):
                raise _HttpError(400, "body must be {\"version\": \"<name>\"}")
            try:
                previous = self.registry.activate(version)
            except RegistryError as exc:
                raise _HttpError(404, str(exc)) from exc
            get_telemetry().event(
                "serve.model_swap", version=version, previous=previous
            )
            return 200, {"active": version, "previous": previous}
        if path == "/v1/diagnose":
            self._require(method, "POST")
            if self._inflight > MAX_INFLIGHT:  # this request counts itself
                raise _HttpError(
                    503, f"more than {MAX_INFLIGHT} requests in flight",
                    retry_after=RETRY_AFTER_S,
                )
            return await self._diagnose(body)
        raise _HttpError(404, f"no such endpoint: {path}")

    async def _diagnose(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        if self.registry.active_version is None:
            raise _HttpError(503, "no model registered")
        try:
            request = DiagnoseRequest.from_dict(self._parse_json(body))
        except ApiError as exc:
            raise _HttpError(400, str(exc)) from exc
        if not request.records:
            info = self.registry.info()
            return 200, DiagnoseResponse(diagnoses=[], model=info).to_dict()
        try:
            scored = cast(
                "List[Tuple[DiagnosisReport, str]]",
                await self.batcher.submit(request.records),
            )
        except ApiError as exc:  # a malformed record surfacing at score time
            raise _HttpError(400, str(exc)) from exc
        except RegistryError as exc:
            raise _HttpError(503, str(exc)) from exc
        except Exception as exc:
            raise _HttpError(500, f"diagnosis failed: {exc}") from exc
        reports = [report for report, _version in scored]
        version = scored[0][1]
        response = DiagnoseResponse.from_reports(reports, self.registry.info(version))
        tel = get_telemetry()
        tel.count("serve.records", len(reports))
        return 200, response.to_dict()

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _parse_json(body: bytes) -> object:
        try:
            return wire.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc

    # ------------------------------------------------------------- transport

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = cast("asyncio.Task[None]", asyncio.current_task())
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        deadline = _ReadDeadline(task)
        try:
            while True:
                deadline.arm()
                try:
                    parsed = await self._read_request(reader, deadline)
                except _HttpError as exc:
                    parsed = exc
                except asyncio.CancelledError:
                    if not deadline.caused():
                        raise
                    parsed = _HttpError(
                        408, f"request not read within {READ_TIMEOUT_S:g} s"
                    ) if deadline.request_line else None
                finally:
                    deadline.disarm()
                if isinstance(parsed, _HttpError):  # framing lost: answer, close
                    await self._reject(writer, parsed.status, parsed.message)
                    break
                if parsed is None:
                    break
                method, path, body = parsed
                self._inflight += 1
                t0 = time.perf_counter()
                retry_after = None
                try:
                    try:
                        status, payload = await self._route(method, path, body)
                    except _HttpError as exc:
                        status, retry_after = exc.status, exc.retry_after
                        payload = {"schema": ERROR_SCHEMA, "error": exc.message}
                    except Exception as exc:  # never kill the connection loop
                        status = 500
                        payload = {"schema": ERROR_SCHEMA, "error": repr(exc)}
                    self._write_response(writer, status, payload, retry_after)
                    await _drain(writer)
                finally:
                    self._inflight -= 1
                    self._observe(method, path, status, time.perf_counter() - t0)
                if self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, deadline: "_ReadDeadline"
    ) -> Optional[Tuple[str, str, bytes]]:
        """One HTTP/1.1 request off the wire, or None at end of connection.

        Raises :class:`_HttpError` when the request cannot be framed.
        """
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        except ValueError as exc:  # longer than the StreamReader limit
            raise _HttpError(400, "request line too long") from exc
        if not request_line or not request_line.strip():
            return None
        deadline.request_line = True
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        n_lines = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError as exc:  # longer than the StreamReader limit
                raise _HttpError(400, "header line too long") from exc
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                return None  # EOF inside the header block: nothing to route
            n_lines += 1
            if n_lines > MAX_HEADER_LINES:
                raise _HttpError(431, f"more than {MAX_HEADER_LINES} header lines")
            name, sep, value = line.decode("latin-1").rstrip("\r\n").partition(":")
            # RFC 9112 §5: a line without a colon, or whitespace inside a
            # field name or before its colon, leaves the framing unknowable
            if not sep:
                raise _HttpError(400, "header line without ':'")
            if not _TOKEN.fullmatch(name):
                raise _HttpError(400, f"invalid header field name {name!r}")
            name, value = name.lower(), value.strip(" \t")
            # RFC 9112 §6.3: a second, different Content-Length likewise
            if name == "content-length" and headers.get(name, value) != value:
                raise _HttpError(400, "conflicting Content-Length")
            headers[name] = value
        if "transfer-encoding" in headers:
            raise _HttpError(
                411, "Transfer-Encoding is not supported; send Content-Length"
            )
        # RFC 9110 §8.6: 1*DIGIT, nothing else (int() would take "+5" or "1_0")
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _HttpError(400, "invalid Content-Length")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, error: str
    ) -> None:
        """Answer a request that cannot be read; the caller then closes."""
        self._write_response(writer, status, {"schema": ERROR_SCHEMA, "error": error})
        await _drain(writer)

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[int] = None,
    ) -> None:
        body = canonical_json(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        connection = "close" if self._draining else "keep-alive"
        retry = "" if retry_after is None else f"Retry-After: {retry_after}\r\n"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry}"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    @staticmethod
    def _observe(method: str, path: str, status: int, dur_s: float) -> None:
        tel = get_telemetry()
        tel.record_span(
            "serve.request", dur_s,
            attrs={"method": method, "path": path, "status": status},
        )
        tel.count("serve.requests")
        tel.count(f"serve.status.{status}")
        tel.observe("serve.latency_s", dur_s)
