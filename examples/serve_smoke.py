#!/usr/bin/env python
"""Smoke-test the serving layer end to end, the way an operator would.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, waits for ``/healthz``, checks ``/readyz``, then opens a client
that sends half a header block and stalls.  With that connection held
open it checks that ``/healthz`` still answers, that a posted session
record still gets its diagnosis, and that SIGTERM still drains with
exit code 0.  Exits non-zero on any failure, so CI can run it as a
gate.

Run:  python examples/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import REQUEST_SCHEMA, RESPONSE_SCHEMA
from repro.core.dataset import Dataset
from repro.pipeline.records import record_to_dict
from repro.testbed.campaign import CampaignConfig, run_campaign

BOOT_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 15.0


def request(port: int, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        conn.close()


def main() -> int:
    print("=== 1. Simulating a tiny training campaign ===")
    records = run_campaign(CampaignConfig(
        n_instances=24, seed=77, video_duration_range=(10.0, 14.0),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        train = Path(tmp) / "train.pkl"
        with train.open("wb") as fh:
            pickle.dump(Dataset.from_records(records), fh)

        print("=== 2. Booting `repro serve` as a subprocess ===")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--train", str(train),
             "--port", "0", "--json"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        stalled = socket.socket()  # connected below, held until the drain
        try:
            startup = json.loads(proc.stdout.readline())
            assert startup["schema"] == "repro-serve-v1", startup
            port = startup["data"]["port"]
            print(f"serving on port {port} "
                  f"(model {startup['data']['active']})")

            deadline = time.time() + BOOT_TIMEOUT_S
            while True:
                try:
                    status, _ = request(port, "GET", "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                assert time.time() < deadline, "server never became healthy"
                time.sleep(0.05)

            print("=== 3. Probing the endpoints past a stalled client ===")
            status, body = request(port, "GET", "/readyz")
            assert status == 200 and body["status"] == "ready", (status, body)
            print(f"readyz: {body}")
            stalled.connect(("127.0.0.1", port))
            stalled.sendall(b"POST /v1/diagnose HTTP/1.1\r\nHost: smoke\r\nContent-")
            status, body = request(port, "GET", "/healthz")
            assert status == 200, (status, body)
            print("healthz: 200 with a half-sent header block held open")

            status, body = request(port, "POST", "/v1/diagnose", {
                "schema": REQUEST_SCHEMA,
                "records": [record_to_dict(records[0])],
            })
            assert status == 200, (status, body)
            assert body["schema"] == RESPONSE_SCHEMA, body
            diagnosis = body["diagnoses"][0]
            print(f"diagnosis: severity={diagnosis['severity']} "
                  f"exact={diagnosis['exact']}")

            print("=== 4. SIGTERM -> graceful drain, stalled client still open ===")
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=DRAIN_TIMEOUT_S)
            assert rc == 0, f"server exited {rc}, want 0"
            print("drained cleanly, exit 0")
        finally:
            stalled.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print("\nserve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
