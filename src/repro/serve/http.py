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

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Terminate one request with a status + message (connection lives on)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServeConfig:
    """Knobs for one serving process."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 picks an ephemeral port (see DiagnosisServer.port)
    max_batch: int = 64
    max_wait_ms: float = 2.0
    drain_grace_s: float = 5.0


class DiagnosisServer:
    """A long-lived diagnosis service bound to one model registry."""

    def __init__(
        self, registry: ModelRegistry, config: Optional[ServeConfig] = None
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.batcher: MicroBatcher = MicroBatcher(
            self._score_batch,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
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
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        try:
            while True:
                parsed = await self._read_request(reader, writer)
                if parsed is None:
                    break
                method, path, body = parsed
                self._inflight += 1
                t0 = time.perf_counter()
                try:
                    try:
                        status, payload = await self._route(method, path, body)
                    except _HttpError as exc:
                        status = exc.status
                        payload = {"schema": ERROR_SCHEMA, "error": exc.message}
                    except Exception as exc:  # never kill the connection loop
                        status = 500
                        payload = {"schema": ERROR_SCHEMA, "error": repr(exc)}
                    self._write_response(writer, status, payload)
                    await writer.drain()
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
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bytes]]:
        """One HTTP/1.1 request off the wire, or None at end of connection."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        except ValueError:  # longer than the StreamReader limit
            await self._reject(writer, 400, "request line too long")
            return None
        if not request_line or not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._reject(writer, 400, "malformed request line")
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        n_lines = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # longer than the StreamReader limit
                await self._reject(writer, 400, "header line too long")
                return None
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                return None  # EOF inside the header block: nothing to route
            n_lines += 1
            if n_lines > MAX_HEADER_LINES:
                await self._reject(
                    writer, 431, f"more than {MAX_HEADER_LINES} header lines"
                )
                return None
            name, sep, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            # RFC 9112 §5 and §6.3: a line without a colon or a second,
            # different Content-Length leaves the framing unknowable
            if not sep or (name == "content-length"
                           and headers.get(name, value) != value):
                await self._reject(
                    writer, 400,
                    "conflicting Content-Length" if sep
                    else "header line without ':'",
                )
                return None
            headers[name] = value
        if "transfer-encoding" in headers:
            await self._reject(
                writer, 411, "Transfer-Encoding is not supported; send Content-Length"
            )
            return None
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1  # not a number: answered like a negative length
        if length < 0:
            await self._reject(writer, 400, "invalid Content-Length")
            return None
        if length > MAX_BODY_BYTES:
            await self._reject(
                writer, 413, f"body exceeds {MAX_BODY_BYTES} bytes"
            )
            return None
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, error: str
    ) -> None:
        """Answer a request that cannot be read; the caller then closes."""
        self._write_response(writer, status, {"schema": ERROR_SCHEMA, "error": error})
        await writer.drain()

    def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
    ) -> None:
        body = canonical_json(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        connection = "close" if self._draining else "keep-alive"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
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
