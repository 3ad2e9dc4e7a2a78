"""Start-up: ``repro serve`` imports everything before it says it is ready.

Cutting imports from start-up only helps if nothing moves behind the
ready line: a module the first request imports costs that request what
start-up saved.  The server runs under ``python -X importtime``, which
logs every import to stderr as it happens; past the startup envelope on
stdout, serving a diagnosis and the status endpoints must log none.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.api import REQUEST_SCHEMA
from repro.pipeline.records import record_to_dict

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_no_import_after_the_ready_line(tmp_path, mini_analyzer,
                                        mini_campaign_records):
    model, log = tmp_path / "model.json", tmp_path / "stderr.log"
    mini_analyzer.save(model)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    with log.open("wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "--model", str(model), "--port", "0", "--json"],
            env=env, stdout=subprocess.PIPE, stderr=stderr,
        )
    try:
        startup = json.loads(proc.stdout.readline())
        ready_at = log.stat().st_size  # every import so far is logged
        assert b"import time:" in log.read_bytes()[:ready_at]
        conn = http.client.HTTPConnection(
            "127.0.0.1", startup["data"]["port"], timeout=30)
        body = json.dumps({"schema": REQUEST_SCHEMA,
                           "records": [record_to_dict(mini_campaign_records[0])]})
        answers = []
        for method, path, payload in (("POST", "/v1/diagnose", body),
                                      ("GET", "/readyz", None),
                                      ("GET", "/v1/models", None)):
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            answers.append((path, response.status, response.read()))
        conn.close()
        late = log.read_bytes()[ready_at:].decode()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(30)
        proc.stdout.close()
    assert [status for _path, status, _body in answers] == [200, 200, 200]
    assert len(json.loads(answers[0][2])["diagnoses"]) == 1
    assert "import time:" not in late, late
