"""End-to-end pin: served responses are identical across prediction engines.

The server runs in this process (on a background thread), so the
``tests.oracles.object_engine`` patch reaches it and a running server
switches engines between requests without a restart.  The same request
posted under ``compiled`` and ``object`` must come back byte-identical as
canonical JSON — the serving layer puts nothing nondeterministic in the
body (latency goes to telemetry only), so any divergence is a real
compiled/object mismatch.
"""

from __future__ import annotations

from repro.api import REQUEST_SCHEMA, canonical_json
from repro.pipeline.records import record_to_dict
from tests.oracles import object_engine


def _post_both_engines(server, payload):
    compiled = server.request("POST", "/v1/diagnose", payload)
    with object_engine():
        obj = server.request("POST", "/v1/diagnose", payload)
    return compiled, obj


def test_served_bodies_byte_identical_across_predict_modes(
        server, mini_campaign_records):
    records = mini_campaign_records[:16]
    payload = {"schema": REQUEST_SCHEMA,
               "records": [record_to_dict(r) for r in records]}
    (status_c, body_c), (status_o, body_o) = _post_both_engines(server, payload)
    assert status_c == status_o == 200
    assert canonical_json(body_c) == canonical_json(body_o)
    assert canonical_json(body_c["diagnoses"]) == canonical_json(
        body_o["diagnoses"])


def test_mixed_record_shapes_identical_across_predict_modes(
        server, mini_campaign_records):
    # Bare feature dicts ride the same batch as wrapped records; the
    # compiled plan must agree with the object path on both shapes.
    record = mini_campaign_records[0]
    payload = {"schema": REQUEST_SCHEMA,
               "records": [dict(record.features),
                           {"features": dict(record.features),
                            "meta": {"session_s": 12.0}},
                           record_to_dict(mini_campaign_records[1])]}
    (_, body_c), (_, body_o) = _post_both_engines(server, payload)
    assert canonical_json(body_c) == canonical_json(body_o)
