"""An asyncio HTTP/1.1 load generator, run outside the server's process.

Requests are pre-encoded bytes, so the generator does no JSON work per
request.  Two disciplines:

* :func:`closed_loop` — each connection sends its next request only
  after the previous reply (a collector waiting for each answer);
* :func:`open_loop` — requests are due on a fixed schedule whatever the
  server does (independent phones).  Latency runs from the *due* time,
  so a stall also charges the requests queued behind it, and the
  generator's own lateness is recorded as ``lag``.

Every attempt is counted; a non-200 reply, a timeout, a reset or a
malformed reply is a failure.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

#: a request that takes longer than this is abandoned and counted failed
TIMEOUT_S = 10.0


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection; reopens itself after an error."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one pre-encoded request; returns ``(status, body)``."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        assert self.reader is not None
        self.writer.write(raw)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


@dataclass
class LoadResult:
    """What one load phase saw; ``latencies`` only for successes."""

    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    errors: Dict[str, int] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors[why] = self.errors.get(why, 0) + 1


#: ``send(connection, index)`` -> HTTP status of request ``index``
SendFn = Callable[[object, int], Awaitable[int]]


async def _attempt(send: SendFn, conn: object, index: int, result: LoadResult,
                   reset: Callable[[object], Awaitable[None]]) -> bool:
    result.attempted += 1
    try:
        status = await asyncio.wait_for(send(conn, index), TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, ValueError, IndexError,
            asyncio.IncompleteReadError) as exc:
        result.fail(type(exc).__name__)
        await reset(conn)
        return False
    if status != 200:
        result.fail(f"http_{status}")
        return False
    return True


async def closed_loop(send: SendFn, conn: object, n_requests: int, seconds: float,
                      reset: Callable[[object], Awaitable[None]]) -> LoadResult:
    """One caller sending requests back to back for ``seconds``."""
    result = LoadResult()
    start = now = time.perf_counter()
    deadline = start + seconds
    index = 0
    while now < deadline:
        t0 = now
        ok = await _attempt(send, conn, index % n_requests, result, reset)
        now = time.perf_counter()
        if ok:
            result.latencies.append(now - t0)
        index += 1
    result.elapsed = now - start
    return result


def poisson_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Due offsets (s) of a Poisson arrival process at ``rate`` per second."""
    rng = random.Random(seed)
    due, t = [], rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due


async def open_loop(send: SendFn, conns: Sequence[object], due: Sequence[float],
                    n_requests: int, reset: Callable[[object], Awaitable[None]],
                    clock: Callable[[], float] = time.perf_counter,
                    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep) -> LoadResult:
    """Send request ``i`` at ``start + due[i]`` on the first idle connection.

    A request waits for an idle connection if every one is busy; its
    ``lag`` is how late it actually went out, and its latency runs from
    its due time to its reply.
    """
    result = LoadResult()
    idle: "asyncio.Queue[object]" = asyncio.Queue()
    for conn in conns:
        idle.put_nowait(conn)
    tasks: "List[asyncio.Task[None]]" = []
    start = clock()

    async def one(index: int, conn: object, due_at: float) -> None:
        try:
            if await _attempt(send, conn, index % n_requests, result, reset):
                result.latencies.append(clock() - due_at)
        finally:
            idle.put_nowait(conn)

    for index, offset in enumerate(due):
        due_at = start + offset
        delay = due_at - clock()
        if delay > 0:
            await sleep(delay)
        conn = await idle.get()
        result.lags.append(clock() - due_at)
        tasks.append(asyncio.ensure_future(one(index, conn, due_at)))
    await asyncio.gather(*tasks)
    result.elapsed = clock() - start
    return result


async def fetch_json(host: str, port: int, path: str) -> Tuple[int, Dict[str, object]]:
    """One GET on a fresh connection; ``(status, decoded body)``."""
    conn = Connection(host, port)
    try:
        status, body = await conn.request(encode_request("GET", path))
    finally:
        await conn.close()
    return status, json.loads(body) if body else {}
