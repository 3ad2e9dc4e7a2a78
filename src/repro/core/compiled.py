"""Fused columnar diagnosis: the compiled plan of a fitted analyzer.

``RootCauseAnalyzer.diagnose_batch`` spends almost none of its time in
the trees — the cost is per-row Python around them.  A
:class:`CompiledAnalyzer` is built once per fitted analyzer and knows:

* the union of the task models' feature lists, as one
  :class:`~repro.core.construction.ConstructionPlan` — only the raw
  inputs those features need are gathered (one ``itemgetter`` +
  ``np.fromiter`` pass over the row dicts), and constructed features are
  evaluated from their recipes, one numpy block per recipe kind;
* each task's columns in that plan, its compiled
  :class:`~repro.ml.compiled.TreePlan` and a precomputed label-decode
  table, so codes become report strings without a ``str()`` call per row.

``diagnose``, ``explain`` and ``diagnose_batch`` all evaluate this plan,
so a row's features — and its diagnosis — depend only on the row.
Predictions are pinned bit-identical to the full-matrix, node-object
reference in ``tests/oracles.py`` by ``tests/ml/test_compiled_equivalence.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.ml.compiled import TreePlan


class CompiledAnalyzer:
    """The diagnosis plan of one fitted analyzer.

    Owned lazily by :class:`~repro.core.diagnosis.RootCauseAnalyzer` and
    dropped whenever the analyzer refits, so it always reflects the live
    models, selected features and constructor state.
    """

    def __init__(self, analyzer: object) -> None:
        self.analyzer = analyzer
        features: Dict[str, List[str]] = analyzer.features  # type: ignore[attr-defined]
        self.plan = analyzer.constructor.plan(  # type: ignore[attr-defined]
            name for task in features for name in features[task]
        )
        column = {name: j for j, name in enumerate(self.plan.names)}
        #: each task's model inputs, as columns of the plan
        self.task_columns = {
            task: np.asarray([column[name] for name in names], dtype=np.intp)
            for task, names in features.items()
        }
        #: per tree task: its tree plan, descending on the plan's columns
        #: directly (split features remapped, so no per-task matrix copy),
        #: and its label-decode table
        self.trees: Dict[str, Tuple[TreePlan, np.ndarray]] = {}
        for task, model in analyzer.models.items():  # type: ignore[attr-defined]
            classes = getattr(model, "classes_", None)
            if hasattr(model, "compiled_plan") and classes is not None:
                tree = model.compiled_plan()
                feature = self.task_columns[task][tree.feature]
                labels = [str(label) for label in classes.tolist()]
                self.trees[task] = (
                    replace(tree, feature=feature, _py=[]),
                    np.asarray(labels, dtype=object),
                )
        #: missing-input sets already warned about: each distinct set
        #: warns exactly once
        self._warned: Set[Tuple[str, ...]] = set()

    def columns(
        self, rows: Sequence[Dict[str, float]], durations: Sequence[float]
    ) -> np.ndarray:
        """Every planned feature column for ``rows``, ``(n, len(plan.names))``."""
        raw, missing = self.plan.gather(rows)
        if missing and missing not in self._warned:
            self._warned.add(missing)
            warnings.warn(
                "zero-filled model inputs missing from the input rows: "
                f"{list(missing)}; check the metric names against the probe "
                "schema (repro lint rule M201)",
                RuntimeWarning,
                stacklevel=2,
            )
        return self.plan.evaluate(raw, durations)

    def task_rows(
        self, features: Dict[str, float], session_s: float
    ) -> Dict[str, List[float]]:
        """One session's model input vector per task, as Python floats."""
        row = self.columns([features], [session_s])[0]
        return {task: row[index].tolist() for task, index in self.task_columns.items()}

    def predict_rows(
        self,
        rows: Sequence[Dict[str, float]],
        durations: Sequence[float],
    ) -> Dict[str, List[str]]:
        """Per-task label strings for a batch of raw feature dicts."""
        cols = self.columns(rows, durations)
        predictions: Dict[str, List[str]] = {}
        for task, index in self.task_columns.items():
            if task in self.trees:
                tree, decoder = self.trees[task]
                predictions[task] = decoder[tree.predict_codes(cols)].tolist()
            else:
                model = self.analyzer.models[task]  # type: ignore[attr-defined]
                labels = model.predict(cols[:, index])
                predictions[task] = [
                    str(label) for label in np.asarray(labels).tolist()
                ]
        return predictions
