"""Serving-layer fixtures: a fitted analyzer and an in-process server.

The HTTP tests run :class:`DiagnosisServer` on a real socket inside a
background thread (its own event loop), and talk to it with plain
``http.client`` from the test thread — the same wire a curl or a probe
would use.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.core.diagnosis import RootCauseAnalyzer
from repro.serve import DiagnosisServer, ModelRegistry, ServeConfig


@pytest.fixture(scope="session")
def mini_analyzer(mini_dataset) -> RootCauseAnalyzer:
    """One fitted all-VP analyzer shared by the serving tests."""
    return RootCauseAnalyzer().fit(mini_dataset)


class ServeHandle:
    """A live server on an ephemeral port, driven from the test thread."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig = None):
        self.registry = registry
        self.config = config or ServeConfig(port=0)
        self.port = None
        self.server = None
        self._loop = None
        self._stop = None
        self._thread = None
        self._started = threading.Event()

    def start(self) -> "ServeHandle":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True
        )
        self._thread.start()
        assert self._started.wait(20), "server failed to start"
        return self

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = DiagnosisServer(self.registry, self.config)
        await self.server.start()
        self.port = self.server.port
        self._stop = asyncio.Event()
        self._started.set()
        await self._stop.wait()
        await self.server.drain()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(20)

    def request(self, method: str, path: str, payload=None):
        """One HTTP request; returns ``(status, parsed_json_body)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data) if data else None
        finally:
            conn.close()


@pytest.fixture()
def server(mini_analyzer):
    registry = ModelRegistry()
    registry.register("v1", mini_analyzer)
    handle = ServeHandle(registry).start()
    yield handle
    handle.stop()
