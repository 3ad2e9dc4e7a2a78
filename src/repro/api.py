"""The stable, versioned public facade: one definition for wire and library.

Every way into a diagnosis — the ``repro diagnose`` CLI, the ``repro
serve`` HTTP service, a notebook import — goes through this module, so
the JSON wire schema and the library API cannot drift apart: the server
parses request bodies with :meth:`DiagnoseRequest.from_dict`, the CLI
builds the same object from argparse flags, and both hand the result to
:func:`diagnose_records`, which wraps ``RootCauseAnalyzer.diagnose_batch``
and returns a :class:`DiagnoseResponse` whose :meth:`~DiagnoseResponse.to_dict`
*is* the response body.

Schemas are versioned by tag (``repro-diagnose-request-v1`` /
``repro-diagnose-response-v1`` / ``repro-model-info-v1``); a breaking
change mints a ``-v2`` tag rather than mutating ``-v1``.

Records on the wire
-------------------

:meth:`DiagnoseRequest.from_dict` accepts three record shapes, each
normalised to the ``SessionLike`` protocol ``diagnose_batch`` consumes:

* a full ``repro-record-v1`` spool object (what ``JsonlSink`` writes);
* ``{"features": {...}, "meta": {...}}`` — the minimal shape a probe
  uploads (``meta.session_s`` drives flow-duration normalisation);
* a bare ``{feature: value}`` mapping.

The records of a parsed request share the payload's float maps: a
``features``, ``app_metrics`` or ``fault_intensity`` map (or a bare map)
whose keys are all ``str`` and whose values are all ``float`` — every
map a JSON body of floats decodes to — is kept as it is, not rebuilt.
Any other map is converted as :func:`coerce_session` converts it, with
the same errors.  :func:`coerce_session` and the functions built on it
always copy, since their caller may change a record once it is coerced.

Example::

    from repro import api

    analyzer = api.load_analyzer(path="model.json")     # or train=..., dataset=...
    response = api.diagnose_records(analyzer, records)
    print(api.canonical_json(response.to_dict()))
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.dataset import Dataset
from repro.core.diagnosis import DiagnosisReport, RootCauseAnalyzer, SessionLike
from repro.core.vantage import ALL_VPS
from repro.record import _build_record, _float_map, _kept_float_map
from repro.schemas import (
    ANALYZER_V2,
    DIAGNOSE_REQUEST_V1,
    DIAGNOSE_RESPONSE_V1,
    MODEL_INFO_V1,
    RECORD_V1,
)

#: wire-schema tags, re-exported from the central registry
#: (:mod:`repro.schemas`) under their historical facade names
REQUEST_SCHEMA = DIAGNOSE_REQUEST_V1
RESPONSE_SCHEMA = DIAGNOSE_RESPONSE_V1
MODEL_INFO_SCHEMA = MODEL_INFO_V1

__all__ = [
    "ApiError",
    "DiagnoseRequest",
    "DiagnoseResponse",
    "ModelInfo",
    "SessionInput",
    "canonical_json",
    "coerce_session",
    "diagnose_records",
    "diagnose_stream",
    "load_analyzer",
    "model_info",
    "MODEL_INFO_SCHEMA",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
]


class ApiError(ValueError):
    """A request that violates the wire schema (client error, not a bug)."""


#: the encoder behind :func:`canonical_json`, built once: ``json.dumps``
#: with any argument builds a new ``JSONEncoder`` on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: object) -> str:
    """The one canonical JSON encoding (sorted keys, no whitespace).

    Responses serialised with this function are byte-comparable: the
    served-vs-offline equivalence tests pin
    ``canonical_json(server output) == canonical_json(diagnose_batch output)``.
    """
    return _CANONICAL.encode(payload)


@dataclass(frozen=True)
class SessionInput:
    """The minimal wire record: raw features plus optional metadata."""

    features: Dict[str, float]
    meta: Dict[str, object] = field(default_factory=dict)


def coerce_session(obj: object) -> SessionLike:
    """Normalise one wire record to the ``SessionLike`` protocol.

    Accepts a full ``repro-record-v1`` dict, a ``{"features": ..,
    "meta": ..}`` object, a bare feature mapping, or anything already
    carrying a ``features`` attribute.  Raises :class:`ApiError` for
    everything else — per record, so a malformed record can fail its
    request without poisoning a server batch.  That includes an integer
    too large for a float (``1`` and 400 zeros decodes to a Python int,
    whose ``float()`` raises ``OverflowError``).  Float maps are always
    copied: the caller may change ``obj`` once it is coerced.
    """
    return _coerce(obj, _float_map)


def _coerce(
    obj: object, float_map: Callable[[object], Dict[str, float]]
) -> SessionLike:
    """:func:`coerce_session`, with ``float_map`` making each float map."""
    if type(obj) is not dict:  # an exact dict never has a ``features`` attribute
        if hasattr(obj, "features"):
            return obj
        if not isinstance(obj, dict):
            raise ApiError(f"record must be an object, got {type(obj).__name__}")
    if obj.get("format") == RECORD_V1:
        try:
            return _build_record(obj, float_map)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ApiError(f"malformed {RECORD_V1} record: {exc}") from exc
    if "features" in obj and isinstance(obj["features"], dict):
        features = obj["features"]
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise ApiError("record meta must be an object")
        try:
            return SessionInput(features=float_map(features), meta=dict(meta))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ApiError(f"non-numeric feature value: {exc}") from exc
    try:
        return float_map(obj)  # bare feature map
    except (TypeError, ValueError, OverflowError) as exc:
        raise ApiError(f"non-numeric feature value: {exc}") from exc


def _session_to_dict(session: SessionLike) -> Dict[str, object]:
    """The wire form of one record (inverse of :func:`coerce_session`)."""
    if hasattr(session, "features"):
        return {
            "features": dict(getattr(session, "features")),
            "meta": dict(getattr(session, "meta", {}) or {}),
        }
    return dict(session)  # type: ignore[call-overload]


@dataclass
class DiagnoseRequest:
    """One diagnosis request: an ordered batch of session records."""

    records: List[SessionLike]

    @classmethod
    def from_dict(cls, payload: object) -> "DiagnoseRequest":
        """Parse and validate a request body (the server's only parser)."""
        if not isinstance(payload, dict):
            raise ApiError("request body must be a JSON object")
        schema = payload.get("schema")
        if schema != REQUEST_SCHEMA:
            raise ApiError(
                f"unsupported request schema {schema!r} (want {REQUEST_SCHEMA!r})"
            )
        records = payload.get("records")
        if not isinstance(records, list):
            raise ApiError("request 'records' must be a list")
        # the payload is this request's own, freshly decoded: its exact
        # float maps are kept, not copied
        return cls(records=[_coerce(record, _kept_float_map) for record in records])

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": REQUEST_SCHEMA,
            "records": [_session_to_dict(record) for record in self.records],
        }


@dataclass(frozen=True)
class ModelInfo:
    """Identity and shape of one servable analyzer version."""

    version: str
    format: str
    vps: Tuple[str, ...]
    features: Dict[str, int]  # task -> number of selected features

    @classmethod
    def from_analyzer(
        cls, analyzer: RootCauseAnalyzer, version: str = "default"
    ) -> "ModelInfo":
        if not analyzer.fitted:
            raise ValueError("analyzer must be fit before describing it")
        return cls(
            version=version,
            format=ANALYZER_V2,
            vps=tuple(analyzer.vps),
            features={task: len(names) for task, names in analyzer.features.items()},
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MODEL_INFO_SCHEMA,
            "version": self.version,
            "format": self.format,
            "vps": list(self.vps),
            "features": dict(self.features),
        }


@dataclass
class DiagnoseResponse:
    """One diagnosis response: per-record reports plus model identity.

    ``diagnoses`` holds ``DiagnosisReport.to_dict()`` payloads verbatim
    and in request order, so the served bytes are canonically identical
    to the offline ``diagnose_batch`` path.
    """

    diagnoses: List[Dict[str, object]]
    model: ModelInfo

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": RESPONSE_SCHEMA,
            "model": self.model.to_dict(),
            "diagnoses": [dict(entry) for entry in self.diagnoses],
        }

    @classmethod
    def from_reports(
        cls, reports: Sequence[DiagnosisReport], model: ModelInfo
    ) -> "DiagnoseResponse":
        return cls(diagnoses=[report.to_dict() for report in reports], model=model)


# --------------------------------------------------------------- entry points


def load_analyzer(
    path: Optional[Union[str, Path]] = None,
    *,
    train: Optional[Union[str, Path]] = None,
    dataset: Optional[Dataset] = None,
    vps: Sequence[str] = ALL_VPS,
    workers: Optional[int] = None,
) -> RootCauseAnalyzer:
    """One loader for every analyzer provenance.

    Exactly one source wins, checked in this order: ``path`` (a
    ``repro-analyzer-v1/v2`` JSON export), ``dataset`` (an in-memory
    labelled :class:`Dataset` to fit on), ``train`` (a campaign pickle
    to fit on), or — with no argument — the cached controlled campaign.
    ``vps``/``workers`` only apply when fitting.
    """
    given = [name for name, value in
             (("path", path), ("train", train), ("dataset", dataset))
             if value is not None]
    if len(given) > 1:
        raise ValueError(f"pass at most one analyzer source, got {given}")
    if path is not None:
        return RootCauseAnalyzer.load(path)
    if dataset is None:
        if train is not None:
            with Path(train).open("rb") as fh:
                obj = pickle.load(fh)
            if not isinstance(obj, Dataset):
                raise ValueError(f"{train} does not contain a repro Dataset")
            dataset = obj
        else:
            from repro.experiments.common import controlled_dataset

            dataset = controlled_dataset(workers=workers)
    return RootCauseAnalyzer(vps=tuple(vps)).fit(dataset)


def model_info(
    analyzer: RootCauseAnalyzer, version: str = "default"
) -> ModelInfo:
    """The :class:`ModelInfo` describing ``analyzer``."""
    return ModelInfo.from_analyzer(analyzer, version=version)


def diagnose_records(
    analyzer: RootCauseAnalyzer,
    records: Iterable[object],
    *,
    model: Optional[ModelInfo] = None,
) -> DiagnoseResponse:
    """Diagnose a batch of records through the one vectorized path.

    ``records`` may be wire dicts (coerced per :func:`coerce_session`) or
    in-memory record objects.  Output order matches input order, and the
    per-record payloads are exactly ``diagnose_batch``'s reports.
    """
    sessions = [coerce_session(record) for record in records]
    reports = analyzer.diagnose_batch(sessions)
    return DiagnoseResponse.from_reports(
        reports, model or ModelInfo.from_analyzer(analyzer)
    )


def diagnose_stream(
    analyzer: RootCauseAnalyzer,
    records: Iterable[object],
    chunk: int = 64,
) -> Iterator[DiagnosisReport]:
    """Streaming diagnosis: constant memory, one report per record in order."""
    coerced: Iterator[Any] = (coerce_session(record) for record in records)
    return analyzer.diagnose_stream(coerced, chunk=chunk)
