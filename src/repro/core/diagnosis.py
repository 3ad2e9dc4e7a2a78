"""The public diagnosis API: :class:`RootCauseAnalyzer`.

This is what a downstream user deploys.  Fit once on a labelled campaign
(or load the bundled lab campaign), then feed it the per-VP features of a
live session::

    analyzer = RootCauseAnalyzer(vps=("mobile",))
    analyzer.fit(dataset)
    report = analyzer.diagnose(session_features)
    print(report.summary())

The analyzer bundles the full pipeline of the paper: feature construction,
FCBF feature selection and one C4.5 model per task (problem existence /
severity, location, exact cause).  It degrades gracefully when only a
subset of vantage points is available -- the central deployment property
of Section 3.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.compiled import CompiledAnalyzer
from repro.core.construction import FeatureConstructor
from repro.core.dataset import Dataset, chunked
from repro.core.selection import FeatureSelector
from repro.core.vantage import ALL_VPS, combo_name, features_for_vps
from repro.ml.tree import C45Tree
from repro.obs.telemetry import get_telemetry
from repro.schemas import ANALYZER_V1, ANALYZER_V2, FC_STATE_V1

_TASKS = ("severity", "location", "exact")

#: what the diagnosis entry points accept: a raw ``{feature: value}`` dict
#: or any record-like object carrying ``features`` (and optionally
#: ``meta["session_s"]``).
SessionLike = Union[Dict[str, float], object]

_LOCATION_HINTS = {
    "mobile": "the mobile device itself",
    "lan": "the user's local network (LAN / wireless)",
    "wan": "the ISP or content-provider network (WAN)",
}

_CAUSE_HINTS = {
    "wan_congestion": "congestion on the WAN path",
    "wan_shaping": "a bandwidth restriction on the WAN link",
    "lan_congestion": "competing traffic in the local network",
    "lan_shaping": "a bandwidth restriction in the local network",
    "mobile_load": "high CPU/memory load on the device",
    "low_rssi": "poor wireless signal reception",
    "wifi_interference": "interference on the WiFi channel",
}


@dataclass
class DiagnosisReport:
    """Structured output of one diagnosis."""

    severity: str
    location: str
    exact: str
    vps: Sequence[str]
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def has_problem(self) -> bool:
        return self.severity != "good"

    @property
    def cause(self) -> str:
        if self.exact == "good":
            return "none"
        return self.exact.rsplit("_", 1)[0]

    @property
    def problem_location(self) -> str:
        if self.location == "good":
            return "none"
        return self.location.rsplit("_", 1)[0]

    def summary(self) -> str:
        if not self.has_problem and self.exact == "good":
            return f"[{combo_name(self.vps)}] QoE is good; no fault detected."
        cause = _CAUSE_HINTS.get(self.cause, self.cause)
        where = _LOCATION_HINTS.get(self.problem_location, self.problem_location)
        return (
            f"[{combo_name(self.vps)}] {self.severity} QoE degradation; "
            f"root cause: {cause}; located at {where}."
        )

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form, for JSON pipelines and dashboards."""
        return {
            "severity": self.severity,
            "location": self.location,
            "exact": self.exact,
            "vps": list(self.vps),
            "has_problem": self.has_problem,
            "cause": self.cause,
            "problem_location": self.problem_location,
            "summary": self.summary(),
        }

    def to_json(self, **kwargs: object) -> str:
        """The diagnosis as a JSON string (``kwargs`` go to ``json.dumps``)."""
        return json.dumps(self.to_dict(), **kwargs)


class RootCauseAnalyzer:
    """End-to-end RCA pipeline bound to a set of vantage points."""

    def __init__(
        self,
        vps: Sequence[str] = ALL_VPS,
        model_factory: Optional[Callable[[], object]] = None,
        fs_delta: float = 0.01,
        select: bool = True,
    ) -> None:
        unknown = set(vps) - set(ALL_VPS)
        if unknown:
            raise ValueError(f"unknown vantage points: {sorted(unknown)}")
        if not vps:
            raise ValueError("need at least one vantage point")
        self.vps = tuple(vps)
        self.model_factory = model_factory or (lambda: C45Tree(min_leaf=2, cf=0.25))
        self.fs_delta = fs_delta
        self.select = select
        self.constructor: Optional[FeatureConstructor] = None
        self.models: Dict[str, object] = {}
        self.features: Dict[str, List[str]] = {}
        self.fitted = False
        self._compiled: Optional[CompiledAnalyzer] = None

    # ------------------------------------------------------------------- fit

    def fit(self, dataset: Dataset) -> "RootCauseAnalyzer":
        """Train the three task models on a labelled campaign dataset."""
        if len(dataset) < 20:
            raise ValueError("dataset too small to train a meaningful model")
        tel = get_telemetry()
        with tel.span(
            "analyzer.fit", vps=combo_name(self.vps), n=len(dataset)
        ):
            with tel.span("analyzer.fit.construct"):
                self.constructor = FeatureConstructor().fit(dataset)
                data = self.constructor.transform(dataset)
            scoped = features_for_vps(data.feature_names, self.vps)
            for task in _TASKS:
                with tel.span("analyzer.fit.task", task=task):
                    names = scoped
                    if self.select:
                        selector = FeatureSelector(delta=self.fs_delta)
                        selector.fit(data, label_kind=task, feature_names=scoped)
                        names = selector.selected or scoped
                    model = self.model_factory()
                    with tel.span(
                        "analyzer.fit.tree", task=task, features=len(names)
                    ):
                        model.fit(
                            data.to_matrix(names),
                            data.labels(task),
                            feature_names=names,
                        )
                    self.models[task] = model
                    self.features[task] = list(names)
        self.fitted = True
        self._compiled = None  # the plan recompiles against the new models
        return self

    def compiled(self) -> CompiledAnalyzer:
        """The diagnosis plan of this analyzer.

        Built lazily and discarded on refit; ``diagnose``, ``explain``
        and ``diagnose_batch`` all evaluate it.
        """
        if not self.fitted:
            raise RuntimeError("analyzer must be fit first")
        compiled = getattr(self, "_compiled", None)
        if compiled is None:
            compiled = self._compiled = CompiledAnalyzer(self)
        return compiled

    # -------------------------------------------------------------- diagnose

    @staticmethod
    def _coerce_session(
        session: "SessionLike",
        session_s: Optional[float],
    ) -> Tuple[Dict[str, float], Optional[float]]:
        """Normalise a record-or-dict input to ``(features, session_s)``.

        Anything with a ``features`` attribute (a ``SessionRecord``, a
        dataset ``Instance``, ...) is unpacked, taking the session duration
        from its ``meta`` unless given explicitly; plain dicts pass through.
        """
        if hasattr(session, "features"):
            if session_s is None:
                session_s = float(
                    getattr(session, "meta", {}).get("session_s", 0.0) or 0.0
                )
            return dict(session.features), session_s
        return session, session_s

    def _make_report(self, predictions: Dict[str, str]) -> DiagnosisReport:
        return DiagnosisReport(
            severity=predictions["severity"],
            location=predictions["location"],
            exact=predictions["exact"],
            vps=self.vps,
            details={"used_features": {t: self.features[t] for t in _TASKS}},
        )

    def diagnose(
        self,
        session: "SessionLike",
        session_s: Optional[float] = None,
    ) -> DiagnosisReport:
        """Diagnose one session.

        ``session`` is either a raw ``{feature: value}`` dict or any object
        with ``features`` (and optionally ``meta["session_s"]``), such as a
        :class:`~repro.record.SessionRecord` or a dataset
        ``Instance``.
        """
        features, session_s = self._coerce_session(session, session_s)
        rows = self.compiled().task_rows(features, session_s or 0.0)
        predictions = {
            task: str(self.models[task].predict_one(rows[task])) for task in _TASKS
        }
        return self._make_report(predictions)

    def diagnose_batch(
        self,
        sessions: Iterable["SessionLike"],
    ) -> List[DiagnosisReport]:
        """Vectorized diagnosis of many sessions at once.

        Runs the analyzer's :class:`CompiledAnalyzer` plan
        (:meth:`compiled`): only the columns the task models consume are
        gathered and constructed, and the compiled tree plans decode
        labels through precomputed tables.  Construction is row-local, so
        each report is identical to :meth:`diagnose` of the same session,
        whatever else is in the batch.
        """
        if not self.fitted:
            raise RuntimeError("analyzer must be fit first")
        rows: List[Dict[str, float]] = []
        durations: List[float] = []
        for session in sessions:
            if hasattr(session, "features"):
                rows.append(session.features)
                durations.append(
                    float(getattr(session, "meta", {}).get("session_s", 0.0) or 0.0)
                )
            else:
                rows.append(session)
                durations.append(0.0)
        if not rows:
            return []
        tel = get_telemetry()
        with tel.span("diagnose.batch", sessions=len(rows)):
            predictions = self.compiled().predict_rows(rows, durations)
            tel.count("diagnose.sessions", len(rows))
        # One shared details dict for the whole batch (nothing mutates
        # report details), and positional construction via map — kwargs
        # dicts per row cost more than the reports themselves.
        details = {"used_features": {t: self.features[t] for t in _TASKS}}
        return list(
            map(
                DiagnosisReport,
                predictions["severity"],
                predictions["location"],
                predictions["exact"],
                itertools.repeat(self.vps),
                itertools.repeat(details),
            )
        )

    def diagnose_stream(
        self,
        sessions: Iterable["SessionLike"],
        chunk: int = 64,
    ) -> Iterator[DiagnosisReport]:
        """Streaming diagnosis: constant memory, vectorized per chunk.

        Consumes ``sessions`` lazily — a live feed or a campaign iterator
        — and yields one report per session in order, running
        :meth:`diagnose_batch` over chunks of up to ``chunk`` sessions.
        Construction and prediction are row-local, so the labels are
        identical to both :meth:`diagnose_batch` over the whole stream
        and :meth:`diagnose` per session; only peak memory differs.
        """
        if not self.fitted:
            raise RuntimeError("analyzer must be fit first")
        for batch in chunked(sessions, chunk):
            for report in self.diagnose_batch(batch):
                yield report

    # ------------------------------------------------------------ inspection

    def selected_features(self, task: str = "exact") -> List[str]:
        if not self.fitted:
            raise RuntimeError("analyzer must be fit first")
        return list(self.features[task])

    def model_text(self, task: str = "exact", max_depth: int = 5) -> str:
        """The interpretable tree (an advantage the paper claims for C4.5)."""
        model = self.models.get(task)
        if model is None or not hasattr(model, "to_text"):
            raise RuntimeError("no interpretable model for this task")
        return model.to_text(max_depth=max_depth)

    def explain(
        self,
        features: Dict[str, float],
        task: str = "exact",
        session_s: Optional[float] = None,
    ) -> Tuple[str, List[object]]:
        """Why a session gets its label: the C4.5 decision path.

        Returns ``(label, [Condition, ...])``; each condition shows the
        feature, the threshold and the session's actual value -- the
        evidence an operator can act on.
        """
        from repro.ml.rules import decision_path

        features, session_s = self._coerce_session(features, session_s)
        row = self.compiled().task_rows(features, session_s or 0.0)[task]
        model = self.models[task]
        label = str(model.predict_one(row))
        return label, decision_path(model, row)

    # ------------------------------------------------------------ persistence

    def save(self, path: Union[str, Path]) -> None:
        """Persist the trained pipeline as JSON (no pickled code).

        The ``repro-analyzer-v2`` export carries the per-task C4.5 trees,
        their feature lists and the explicit feature-construction state
        (:meth:`FeatureConstructor.to_state` -- independent of how many
        workers collected the training campaign), so a lab-trained analyzer
        can be shipped to probes and reloaded with :meth:`load`.
        """
        from repro.ml.export import tree_to_dict

        if not self.fitted:
            raise RuntimeError("analyzer must be fit before saving")
        payload = {
            "format": ANALYZER_V2,
            "vps": list(self.vps),
            "fs_delta": self.fs_delta,
            "select": self.select,
            "constructor": self.constructor.to_state(),
            "tasks": {
                task: {
                    "features": self.features[task],
                    "tree": tree_to_dict(self.models[task]),
                }
                for task in _TASKS
            },
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RootCauseAnalyzer":
        """Reload an analyzer saved by :meth:`save` (v1 or v2 export)."""
        from repro.ml.export import tree_from_dict

        payload = json.loads(Path(path).read_text())
        version = payload.get("format")
        if version == ANALYZER_V2:
            state = payload["constructor"]
        elif version == ANALYZER_V1:
            # v1 stored the per-NIC maxima inline; lift them into the
            # explicit constructor-state shape.
            state = {
                "format": FC_STATE_V1,
                "nic_max_rates": payload["nic_max_rates"],
            }
        else:
            raise ValueError("not a repro analyzer export")
        analyzer = cls(
            vps=tuple(payload["vps"]),
            fs_delta=payload.get("fs_delta", 0.01),
            select=payload.get("select", True),
        )
        analyzer.constructor = FeatureConstructor.from_state(state)
        for task, blob in payload["tasks"].items():
            analyzer.features[task] = list(blob["features"])
            analyzer.models[task] = tree_from_dict(blob["tree"])
        analyzer.fitted = True
        return analyzer
