"""Fused columnar diagnosis: compiled batch plans for the analyzer.

``RootCauseAnalyzer.diagnose_batch`` spends almost none of its time in
the trees — profiling the object path at fleet batch sizes shows the
cost is per-row Python around them: materialising every raw *and*
constructed feature for the whole universe (~350 columns) when the
three task models consume a few dozen, the homogeneity check, the
padded-matrix copy, and per-row ``str()`` label decoding.

This module compiles, once per batch *key signature* (the tuple of
feature names the rows carry), a :class:`BatchPlan` that knows:

* which raw columns the task models actually need — gathered with one
  ``operator.itemgetter`` + ``np.fromiter`` pass over the row dicts
  instead of copying every value of every row;
* which constructed features feed the models, resolved to closed-form
  column ops (count ``*_norm``, NIC ``*_util``, flow-duration norm)
  that replay :meth:`FeatureConstructor.transform_rows` formula by
  formula — including its emission order, so a constructed name that
  shadows a raw column wins exactly as it does there;
* the compiled :class:`~repro.ml.compiled.TreePlan` and a precomputed
  label-decode table per task, so codes become report strings without
  a ``str()`` call per row.

Bit-identity is the contract: the gathered columns are the same float64
values ``transform_rows`` would produce, the formula expressions are the
same numpy expressions evaluated in the same order, and the decode
tables hold the same strings ``str(label)`` yields — so predictions and
reports are byte-identical to the object path (pinned by
``tests/ml/test_compiled_equivalence.py``).  Batches the plan cannot
prove equivalent — rows of differing lengths, a row missing a needed
metric, or a row carrying a *sensitive* name that would change a needed
column in the full transform — return ``None`` and fall back to the
reference path in ``core/diagnosis.py``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.construction import (
    _BYTE_COUNTERS,
    _FLOW_DURATION_VPS,
    _PKT_COUNTERS,
)

#: column-op kinds a plan may execute (see :class:`_ColumnOp`)
_RAW, _NORM, _UTIL, _FLOW, _ZERO = range(5)

#: plans cached per analyzer before the oldest signatures are dropped
_MAX_PLANS = 16


@dataclass(frozen=True)
class _ColumnOp:
    """One needed feature column, resolved to a closed-form recipe.

    ``kind`` selects the formula; ``a``/``b`` index into the gathered
    raw matrix (``b`` is the normalisation total, ``-1`` when the total
    is missing and the column zero-fills); ``scale`` carries the fitted
    NIC maximum for ``_UTIL`` ops.
    """

    kind: int
    out: int
    a: int = -1
    b: int = -1
    scale: float = 0.0


@dataclass
class BatchPlan:
    """Everything needed to diagnose a homogeneous batch in one pass."""

    signature: Tuple[str, ...]
    raw_names: Tuple[str, ...]
    getter: Optional[Callable[[Dict[str, float]], object]]
    ops: Tuple[_ColumnOp, ...]
    n_slots: int
    task_slots: Dict[str, np.ndarray]
    tree_plans: Dict[str, Optional[object]]
    decoders: Dict[str, Optional[np.ndarray]]
    #: totals missing from the signature — the zero-fill warning set
    #: ``transform_rows`` would report for these rows
    missing: Tuple[str, ...]
    #: raw names absent from the signature whose presence in *any* row
    #: could change a needed column (a zero-filled norm total, a
    #: zero-filled feature itself, or a raw that would emit a
    #: constructed feature shadowing a needed one) — if a row carries
    #: one, the batch falls back to the reference path
    sensitive: Tuple[str, ...]
    needs_flow: bool

    def gather(self, rows: Sequence[Dict[str, float]]) -> Optional[np.ndarray]:
        """The needed raw columns as a float64 ``(n, len(raw_names))``.

        One C-level pass: ``itemgetter`` pulls each row's needed values
        as a tuple, ``np.fromiter`` parses the chained floats.  Raises
        ``KeyError`` when a row lacks a needed name — the caller treats
        that as "not a uniform batch" and falls back.
        """
        if self.getter is None:
            return None
        n = len(rows)
        width = len(self.raw_names)
        if width == 1:
            flat = np.fromiter(map(self.getter, rows), dtype=float, count=n)
        else:
            flat = np.fromiter(
                itertools.chain.from_iterable(map(self.getter, rows)),
                dtype=float,
                count=n * width,
            )
        return flat.reshape(n, width)

    def build_columns(
        self, rows: Sequence[Dict[str, float]], durations: Sequence[float]
    ) -> np.ndarray:
        """Evaluate every needed feature column for the batch.

        Each op replays the exact numpy expression
        :meth:`FeatureConstructor.transform_rows` uses for that
        constructed feature, on the exact same input values — so the
        resulting columns are bitwise what the full transform would
        have produced for these names.
        """
        n = len(rows)
        gathered = self.gather(rows)
        cols = np.zeros((n, self.n_slots))
        if self.needs_flow:
            sess = np.asarray(list(durations), dtype=float)
            positive = sess > 0
            safe = np.where(positive, sess, 1.0)
        for op in self.ops:
            if op.kind == _RAW:
                cols[:, op.out] = gathered[:, op.a]
            elif op.kind == _NORM:
                if op.b < 0:
                    continue  # total missing: the column zero-fills
                values = gathered[:, op.a]
                total = gathered[:, op.b]
                with np.errstate(divide="ignore", invalid="ignore"):
                    cols[:, op.out] = np.where(
                        total > 0, values / np.where(total > 0, total, 1.0), 0.0
                    )
            elif op.kind == _UTIL:
                cols[:, op.out] = np.minimum(1.0, gathered[:, op.a] / op.scale)
            elif op.kind == _FLOW:
                cols[:, op.out] = np.where(
                    positive, gathered[:, op.a] / safe, 0.0
                )
            # _ZERO: the column stays zero, like the padded zero column
        return cols


class CompiledAnalyzer:
    """Per-analyzer cache of :class:`BatchPlan` objects.

    Owned lazily by :class:`~repro.core.diagnosis.RootCauseAnalyzer`
    and rebuilt whenever the analyzer refits, so plans always reflect
    the live models, selected features and constructor state.
    """

    def __init__(self, analyzer: object) -> None:
        self.analyzer = analyzer
        self._plans: Dict[Tuple[str, ...], BatchPlan] = {}

    # ------------------------------------------------------------- compile

    def plan_for(self, signature: Tuple[str, ...]) -> BatchPlan:
        plan = self._plans.get(signature)
        if plan is None:
            if len(self._plans) >= _MAX_PLANS:
                self._plans.clear()
            plan = self._compile(signature)
            self._plans[signature] = plan
        return plan

    def _compile(self, signature: Tuple[str, ...]) -> BatchPlan:
        analyzer = self.analyzer
        constructor = analyzer.constructor
        raw_set = set(signature)

        # Replay transform_rows' emission passes over this signature to
        # learn (a) which constructed name wins each output column (a
        # later emit overwrites an earlier one — dict assignment below
        # mirrors that last-wins order) and (b) the exact zero-fill set
        # the full transform would warn about.
        emits: Dict[str, Tuple[object, ...]] = {}
        zero_filled: set = set()
        for name in signature:
            if "_tcp_" not in name:
                continue
            for direction in ("c2s", "s2c"):
                tag = f"_{direction}_"
                if tag not in name:
                    continue
                prefix, suffix = name.split(tag, 1)
                if suffix in _PKT_COUNTERS:
                    total_name = f"{prefix}_{direction}_pkts"
                elif suffix in _BYTE_COUNTERS:
                    total_name = f"{prefix}_{direction}_bytes"
                else:
                    continue
                if total_name not in raw_set:
                    zero_filled.add(total_name)
                emits[f"{name}_norm"] = (_NORM, name, total_name)
        for rate_name, max_rate in constructor._nic_max_rates.items():
            if rate_name in raw_set and max_rate > 0:
                emits[f"{rate_name[:-5]}_util"] = (_UTIL, rate_name, max_rate)
        for vp in _FLOW_DURATION_VPS:
            key = f"{vp}_tcp_flow_duration"
            if key in raw_set:
                emits[f"{key}_norm"] = (_FLOW, key)

        # Resolve the union of per-task feature lists to column slots.
        slots: Dict[str, int] = {}
        raw_cols: Dict[str, int] = {}
        ops: List[_ColumnOp] = []
        sensitive: set = set()
        nic_max_rates = constructor._nic_max_rates
        needs_flow = False

        def raw_col(name: str) -> int:
            col = raw_cols.get(name)
            if col is None:
                col = len(raw_cols)
                raw_cols[name] = col
            return col

        for task in analyzer.features:
            for name in analyzer.features[task]:
                if name in slots:
                    continue
                out = slots[name] = len(slots)
                emit = emits.get(name)
                if emit is not None:
                    if emit[0] == _NORM:
                        _kind, value_name, total_name = emit
                        have_total = total_name in raw_set
                        ops.append(
                            _ColumnOp(
                                kind=_NORM,
                                out=out,
                                a=raw_col(str(value_name)),
                                b=raw_col(str(total_name)) if have_total else -1,
                            )
                        )
                        if not have_total:
                            # a row carrying the total would make the
                            # reference transform divide instead of
                            # zero-filling this column
                            sensitive.add(str(total_name))
                    elif emit[0] == _UTIL:
                        _kind, rate_name, max_rate = emit
                        ops.append(
                            _ColumnOp(
                                kind=_UTIL,
                                out=out,
                                a=raw_col(str(rate_name)),
                                scale=float(max_rate),  # type: ignore[arg-type]
                            )
                        )
                    else:
                        needs_flow = True
                        ops.append(
                            _ColumnOp(kind=_FLOW, out=out, a=raw_col(str(emit[1])))
                        )
                elif name in raw_set:
                    ops.append(_ColumnOp(kind=_RAW, out=out, a=raw_col(name)))
                    # a raw column the reference transform would
                    # *overwrite* if some row carried the generating
                    # metric of a same-named constructed feature
                    if name.endswith("_norm") and name[:-5] not in raw_set:
                        sensitive.add(name[:-5])
                    if name.endswith("_util"):
                        rate_name = name[:-5] + "_rate"
                        if (
                            rate_name not in raw_set
                            and nic_max_rates.get(rate_name, 0) > 0
                        ):
                            sensitive.add(rate_name)
                else:
                    ops.append(_ColumnOp(kind=_ZERO, out=out))
                    # zero-filled everywhere per the signature; any row
                    # carrying the name (or a metric that constructs
                    # it) would give the reference path a live column
                    sensitive.add(name)
                    if name.endswith("_norm"):
                        sensitive.add(name[:-5])
                    if name.endswith("_util"):
                        rate_name = name[:-5] + "_rate"
                        if nic_max_rates.get(rate_name, 0) > 0:
                            sensitive.add(rate_name)

        raw_names = tuple(raw_cols)
        getter: Optional[Callable[[Dict[str, float]], object]] = None
        if raw_names:
            getter = itemgetter(*raw_names)

        task_slots = {
            task: np.asarray(
                [slots[name] for name in analyzer.features[task]], dtype=np.intp
            )
            for task in analyzer.features
        }
        tree_plans: Dict[str, Optional[object]] = {}
        decoders: Dict[str, Optional[np.ndarray]] = {}
        for task, model in analyzer.models.items():
            classes = getattr(model, "classes_", None)
            if hasattr(model, "compiled_plan") and classes is not None:
                tree_plans[task] = model.compiled_plan()
                decoders[task] = np.asarray(
                    [str(label) for label in classes.tolist()], dtype=object
                )
            else:
                tree_plans[task] = None
                decoders[task] = None

        return BatchPlan(
            signature=signature,
            raw_names=raw_names,
            getter=getter,
            ops=tuple(ops),
            n_slots=len(slots),
            task_slots=task_slots,
            tree_plans=tree_plans,
            decoders=decoders,
            missing=tuple(sorted(zero_filled)),
            sensitive=tuple(sorted(sensitive)),
            needs_flow=needs_flow,
        )

    # ------------------------------------------------------------- predict

    def predict_rows(
        self,
        rows: Sequence[Dict[str, float]],
        durations: Sequence[float],
    ) -> Optional[Dict[str, List[str]]]:
        """Per-task label strings for a uniform batch.

        Returns ``None`` — and the caller takes the reference transform
        path — when the batch may diverge from it: rows of differing
        lengths, a row missing a needed raw metric (the gather's
        ``KeyError``), or a row carrying one of the plan's *sensitive*
        names (a metric whose presence would change a needed column in
        the full transform).  Together those guards make the fast path's
        predictions bit-identical to the reference on every batch it
        accepts, without materialising each row's key tuple: the
        predictions depend only on the needed raw values, which are
        gathered per row by name.  (Zero-fill *warnings* still follow
        the first row's signature, so a batch mixing equal-length but
        differently-keyed rows can warn differently than the reference
        path while predicting identically.)
        """
        width = len(rows[0])
        if set(map(len, rows)) != {width}:
            return None
        plan = self.plan_for(tuple(rows[0]))
        if plan.sensitive and any(
            name in row for row in rows for name in plan.sensitive
        ):
            return None
        try:
            cols = plan.build_columns(rows, durations)
        except KeyError:
            return None
        if plan.missing:
            self._warn_zero_fill(plan.missing)
        predictions: Dict[str, List[str]] = {}
        for task, slot_idx in plan.task_slots.items():
            X = cols[:, slot_idx]
            tree_plan = plan.tree_plans[task]
            decoder = plan.decoders[task]
            if tree_plan is not None and decoder is not None:
                codes = tree_plan.predict_codes(X)
                predictions[task] = decoder[codes].tolist()
            else:
                labels = self.analyzer.models[task].predict(X)
                predictions[task] = [
                    str(label) for label in np.asarray(labels).tolist()
                ]
        return predictions

    def _warn_zero_fill(self, missing: Tuple[str, ...]) -> None:
        """The same once-per-missing-set warning ``transform_rows`` emits.

        Shares the constructor's warned-set, so a batch that falls back
        to the full-matrix path never double-warns about the same
        missing features.
        """
        constructor = self.analyzer.constructor
        warned = getattr(constructor, "_warned_zero_fill", None)
        if not isinstance(warned, set):
            warned = set()
        constructor._warned_zero_fill = warned
        if missing not in warned:
            warned.add(missing)
            warnings.warn(
                "transform_rows zero-filled features missing from the "
                f"input rows: {list(missing)}; check the metric names "
                "against the probe schema (repro lint rule M201)",
                RuntimeWarning,
                stacklevel=2,
            )
