"""The wire-schema registry: every ``repro-*-vN`` tag, in one place.

Every persisted or wire-visible payload this project emits is tagged
with a versioned schema string (``repro-record-v1``, ``repro-trace-v1``,
...).  Before this module existed those tags were bare literals scattered
across a dozen modules, with nothing checking that the module writing a
tag and the module parsing it agreed — the classic telemetry-pipeline
schema-drift failure mode.  Now:

* each tag is a module-level constant here, imported by every producer
  and consumer; ``tests/test_schemas.py`` fails on a tag literal (or an
  f-string tag) anywhere else in ``src/repro``;
* each tag is *registered* as a :class:`WireSchema` declaring which
  modules produce it and which consume it — the same test checks both
  sides exist and that every declared module's source really names the
  constant (or mints the tag through :func:`envelope_tag`);
* CLI envelopes are minted through :func:`envelope_tag`, and the test
  checks every subcommand with ``--json`` has a registered tag.

Consumers that live outside ``src/repro`` (tests, examples, downstream
services reading our JSON) are declared with the ``external:`` prefix —
they satisfy the somebody-consumes-this requirement without being
cross-checked against the source tree.

This module must stay import-free of the rest of the package: every
layer (core, ml, pipeline, obs, serve, analysis, cli) imports it, so any
``repro.*`` import here would cycle.

A breaking payload change mints a new ``-v(N+1)`` constant and registers
it alongside the old one (kept with ``legacy=True`` while loaders still
accept it); it never mutates an existing tag's meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: prefix marking a declared consumer that lives outside ``src/repro``
EXTERNAL = "external:"

# ------------------------------------------------------------------ tags
#
# Persistence formats (the ``format`` key of a stored payload).

#: one spooled campaign session (``repro.record``)
RECORD_V1 = "repro-record-v1"
#: spool checkpoint sidecar (``pipeline.checkpoint``)
CHECKPOINT_V1 = "repro-ckpt-v1"
#: telemetry trace export / JSONL interchange (``obs``)
TRACE_V1 = "repro-trace-v1"
#: captured packet trace (``simnet.trace``) — distinct from the
#: telemetry trace; the two shared one tag before this registry existed
PACKET_TRACE_V1 = "repro-pkttrace-v1"
#: legacy analyzer export with inline NIC maxima (read-only since v2)
ANALYZER_V1 = "repro-analyzer-v1"
#: analyzer export: per-task trees + explicit constructor state
ANALYZER_V2 = "repro-analyzer-v2"
#: one serialized C4.5 tree (``ml.export``)
C45_V1 = "repro-c45-v1"
#: fitted feature-constructor state (``core.construction``)
FC_STATE_V1 = "repro-fc-v1"

# HTTP wire schemas (the ``schema`` key of a request/response body).

#: ``POST /v1/diagnose`` request body (``api.DiagnoseRequest``)
DIAGNOSE_REQUEST_V1 = "repro-diagnose-request-v1"
#: ``POST /v1/diagnose`` response body (``api.DiagnoseResponse``)
DIAGNOSE_RESPONSE_V1 = "repro-diagnose-response-v1"
#: model identity object embedded in responses (``api.ModelInfo``)
MODEL_INFO_V1 = "repro-model-info-v1"
#: error body served for any failed HTTP request (``serve.http``)
SERVE_ERROR_V1 = "repro-error-v1"

# CLI ``--json`` envelopes ({"schema": tag, "data": ...}), one per
# subcommand, minted uniformly by :func:`envelope_tag`.

CAMPAIGN_ENVELOPE_V1 = "repro-campaign-v1"
#: the two sharded-campaign modes of `repro campaign` (--shards N with
#: --shard K or --merge) share one envelope distinct from the
#: pickle-writing default
CAMPAIGN_SHARD_ENVELOPE_V1 = "repro-campaign-shard-v1"
DIAGNOSE_ENVELOPE_V1 = "repro-diagnose-v1"
REPORT_ENVELOPE_V1 = "repro-report-v1"
STREAM_ENVELOPE_V1 = "repro-stream-v1"
SERVE_ENVELOPE_V1 = "repro-serve-v1"
LINT_ENVELOPE_V1 = "repro-lint-v1"
# (`repro trace --json` reuses TRACE_V1: the envelope carries the
# summarized form of the same telemetry export.)


def envelope_tag(command: str) -> str:
    """The envelope schema tag for one CLI subcommand."""
    return f"repro-{command}-v1"


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class WireSchema:
    """One registered wire/persistence schema and its two sides.

    ``producers`` / ``consumers`` are package-relative module paths
    (``pipeline/records.py``) or ``external:``-prefixed references for
    parties outside ``src/repro``.  ``legacy`` marks tags that are
    still *read* but no longer written — they need consumers only.
    """

    tag: str
    doc: str
    producers: Tuple[str, ...] = ()
    consumers: Tuple[str, ...] = ()
    legacy: bool = False


SCHEMAS: Tuple[WireSchema, ...] = (
    WireSchema(
        tag=RECORD_V1,
        doc="spooled campaign session record (JSONL line)",
        producers=("record.py",),
        consumers=("record.py", "api.py",
                   EXTERNAL + "tests/pipeline"),
    ),
    WireSchema(
        tag=CHECKPOINT_V1,
        doc="atomic spool checkpoint sidecar",
        producers=("pipeline/checkpoint.py",),
        consumers=("pipeline/checkpoint.py",),
    ),
    WireSchema(
        tag=TRACE_V1,
        doc="telemetry export: live payload, JSONL trace, CLI summary envelope",
        producers=("obs/telemetry.py", "obs/trace.py", "cli.py"),
        consumers=("obs/telemetry.py", "obs/trace.py",
                   EXTERNAL + "tests/obs"),
    ),
    WireSchema(
        tag=PACKET_TRACE_V1,
        doc="captured simnet packet trace (pickled, replayable into probes)",
        producers=("simnet/trace.py",),
        consumers=("simnet/trace.py",),
    ),
    WireSchema(
        tag=ANALYZER_V1,
        doc="legacy analyzer export (inline NIC maxima); still loadable",
        consumers=("core/diagnosis.py",),
        legacy=True,
    ),
    WireSchema(
        tag=ANALYZER_V2,
        doc="analyzer export: per-task C4.5 trees + constructor state",
        producers=("core/diagnosis.py", "api.py"),
        consumers=("core/diagnosis.py", EXTERNAL + "model registries"),
    ),
    WireSchema(
        tag=C45_V1,
        doc="one serialized C4.5 decision tree",
        producers=("ml/export.py",),
        consumers=("ml/export.py",),
    ),
    WireSchema(
        tag=FC_STATE_V1,
        doc="fitted feature-constructor state (per-NIC maxima)",
        producers=("core/construction.py", "core/diagnosis.py"),
        consumers=("core/construction.py",),
    ),
    WireSchema(
        tag=DIAGNOSE_REQUEST_V1,
        doc="POST /v1/diagnose request body",
        producers=("api.py", EXTERNAL + "probe clients"),
        consumers=("api.py",),
    ),
    WireSchema(
        tag=DIAGNOSE_RESPONSE_V1,
        doc="POST /v1/diagnose response body",
        producers=("api.py",),
        consumers=(EXTERNAL + "probe clients", EXTERNAL + "tests/serve"),
    ),
    WireSchema(
        tag=MODEL_INFO_V1,
        doc="model identity embedded in diagnose responses",
        producers=("api.py",),
        consumers=(EXTERNAL + "probe clients",),
    ),
    WireSchema(
        tag=SERVE_ERROR_V1,
        doc="error body for any failed serve HTTP request",
        producers=("serve/http.py",),
        consumers=(EXTERNAL + "probe clients",),
    ),
    WireSchema(
        tag=CAMPAIGN_ENVELOPE_V1,
        doc="`repro campaign --json` summary envelope",
        producers=("cli.py",),
        consumers=(EXTERNAL + "tests/core",),
    ),
    WireSchema(
        tag=CAMPAIGN_SHARD_ENVELOPE_V1,
        doc="`repro campaign --shards N --shard K|--merge --json` envelope",
        producers=("cli.py",),
        consumers=(EXTERNAL + "tests/core", EXTERNAL + "CI",
                   EXTERNAL + "examples/shard_smoke.py"),
    ),
    WireSchema(
        tag=DIAGNOSE_ENVELOPE_V1,
        doc="`repro diagnose --json` envelope",
        producers=("cli.py",),
        consumers=(EXTERNAL + "tests/core",),
    ),
    WireSchema(
        tag=REPORT_ENVELOPE_V1,
        doc="`repro report --json` envelope",
        producers=("cli.py",),
        consumers=(EXTERNAL + "tests/core",),
    ),
    WireSchema(
        tag=STREAM_ENVELOPE_V1,
        doc="`repro stream --json` NDJSON envelope (one per session)",
        producers=("cli.py",),
        consumers=(EXTERNAL + "tests/core",),
    ),
    WireSchema(
        tag=SERVE_ENVELOPE_V1,
        doc="`repro serve --json` startup envelope",
        producers=("cli.py",),
        consumers=(EXTERNAL + "examples/serve_smoke.py",),
    ),
    WireSchema(
        tag=LINT_ENVELOPE_V1,
        doc="`repro lint --json` findings envelope",
        producers=("cli.py",),
        consumers=(EXTERNAL + "tests/analysis", EXTERNAL + "CI"),
    ),
)

#: tag -> registered schema
REGISTRY: Dict[str, WireSchema] = {schema.tag: schema for schema in SCHEMAS}

if len(REGISTRY) != len(SCHEMAS):  # pragma: no cover - registry authoring bug
    raise RuntimeError("duplicate wire-schema tag registered")


def registered(tag: str) -> bool:
    """Whether ``tag`` is a registered wire schema."""
    return tag in REGISTRY
