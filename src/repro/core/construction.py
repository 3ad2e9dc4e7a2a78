"""Feature Construction (Section 3.2).

Makes the feature space "agnostic to the specifics of each scenario, i.e.
video type, streaming techniques and network technology":

* every per-flow byte/packet counter is normalised by the flow's total
  bytes/packets at the same vantage point (``*_norm`` features);
* NIC send/receive rates are divided by the maximum rate observed for that
  NIC in the entire dataset, yielding utilisations in [0, 1]
  (``*_util`` features) -- this is a dataset-level fit, exactly as the
  paper describes;
* flow duration is normalised by the video-session duration.

This module is the only place that knows those names and formulas.
:meth:`FeatureConstructor.recipe` maps a constructed name to its
:class:`Recipe` (kind, raw inputs, fitted scale), and a
:class:`ConstructionPlan` evaluates a fixed list of names over raw rows,
one numpy block per recipe kind.  The training transform and every
diagnosis entry point go through the same plans.

The row-local rule: a name that has a recipe is always computed from its
inputs, and an absent input reads 0.0.  A raw value arriving under a
constructed name is therefore ignored, and a row's constructed features
never depend on the other rows it is batched with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.dataset import Dataset, Instance
from repro.schemas import FC_STATE_V1

#: tstat counters normalised by total packets of the same direction
_PKT_COUNTERS = (
    "data_pkts",
    "retx_pkts",
    "ooo_pkts",
    "reordered_pkts",
    "pure_acks",
    "dup_acks",
    "sack_acks",
)
#: tstat counters normalised by total bytes of the same direction
_BYTE_COUNTERS = ("data_bytes", "retx_bytes", "unique_bytes")

#: link-probe rate features turned into utilisations
_RATE_SUFFIXES = ("tx_rate", "rx_rate")

#: vantage points whose flow duration is normalised by session duration
_FLOW_DURATION_VPS = ("mobile", "router", "server")
_FLOW_DURATIONS = tuple(f"{vp}_tcp_flow_duration" for vp in _FLOW_DURATION_VPS)

#: recipe kinds: counter / same-direction total, NIC rate / fitted
#: maximum (clamped at 1), flow duration / session duration
NORM, UTIL, FLOW = "norm", "util", "flow"


@lru_cache(maxsize=4096)
def _count_total(name: str) -> Optional[str]:
    """The same-direction total a tstat counter is normalised by, if any."""
    total = None
    if "_tcp_" in name:
        for direction in ("c2s", "s2c"):
            tag = f"_{direction}_"
            if tag not in name:
                continue
            prefix, suffix = name.split(tag)[:2]  # e.g. "mobile_tcp", "data_pkts"
            if suffix in _PKT_COUNTERS:
                total = f"{prefix}_{direction}_pkts"
            elif suffix in _BYTE_COUNTERS:
                total = f"{prefix}_{direction}_bytes"
    return total


@dataclass(frozen=True)
class Recipe:
    """How one constructed feature is computed from raw inputs.

    ``inputs`` is ``(counter, total)`` for :data:`NORM`, ``(rate,)`` for
    :data:`UTIL` and ``(flow_duration,)`` for :data:`FLOW`; ``scale`` is
    the fitted NIC maximum of a :data:`UTIL` recipe.
    """

    kind: str
    inputs: Tuple[str, ...]
    scale: float = 0.0


class ConstructionPlan:
    """Evaluates a fixed set of feature names over raw rows.

    ``names`` holds the planned names in output-column order: first the
    raw ones, copied from the row, then the constructed ones grouped by
    recipe kind, each kind computed as one ``(n, k)`` numpy block.  Every
    value depends only on its own row.
    """

    def __init__(
        self, names: Iterable[str], recipe: Callable[[str], Optional[Recipe]]
    ) -> None:
        recipes = {name: recipe(name) for name in names}
        raw = [name for name, rec in recipes.items() if rec is None]
        kinds: Dict[str, List[Tuple[str, Recipe]]] = {}
        for name, rec in recipes.items():
            if rec is not None:
                kinds.setdefault(rec.kind, []).append((name, rec))
        # raw names take the first input columns, so their output block is
        # a plain slice of the gathered matrix
        inputs = dict.fromkeys(raw)
        for members in kinds.values():
            for _name, rec in members:
                inputs.update(dict.fromkeys(rec.inputs))
        column = {name: j for j, name in enumerate(inputs)}
        #: the raw names the plan reads, in gather-column order
        self.inputs = tuple(inputs)
        self.names = tuple(raw) + tuple(
            name for members in kinds.values() for name, _rec in members
        )
        self._n_raw = len(raw)
        #: per kind: input columns (one row per recipe input) and scales
        self._blocks = [
            (
                kind,
                np.asarray(
                    [[column[i] for i in rec.inputs] for _name, rec in members],
                    dtype=np.intp,
                ).T,
                np.asarray([rec.scale for _name, rec in members], dtype=float),
            )
            for kind, members in kinds.items()
        ]
        # itemgetter of one name returns the bare value, not a 1-tuple
        self._get: Callable[[Mapping[str, float]], Tuple[float, ...]] = (
            itemgetter(*self.inputs)
            if len(self.inputs) > 1
            else (lambda row, names=self.inputs: tuple(row[n] for n in names))
        )

    def gather(
        self, rows: Sequence[Mapping[str, float]]
    ) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """The raw inputs as a float64 ``(n, len(inputs))`` matrix.

        Complete rows take one C-level ``itemgetter`` + ``np.fromiter``
        pass.  An input absent from a row reads 0.0; the second value
        lists, sorted, every input some row lacked.
        """
        n, width = len(rows), len(self.inputs)
        if not width:
            return np.zeros((n, 0)), ()
        get = self._get
        try:
            flat = np.fromiter(
                itertools.chain.from_iterable(map(get, rows)),
                dtype=float,
                count=n * width,
            )
            return flat.reshape(n, width), ()
        except KeyError:
            pass
        missing: Set[str] = set()
        values: List[Tuple[float, ...]] = []
        for row in rows:
            try:
                values.append(get(row))
            except KeyError:
                values.append(tuple(row.get(name, 0.0) for name in self.inputs))
                missing.update(name for name in self.inputs if name not in row)
        flat = np.fromiter(
            itertools.chain.from_iterable(values), dtype=float, count=n * width
        )
        return flat.reshape(n, width), tuple(sorted(missing))

    def evaluate(self, raw: np.ndarray, session_s: Sequence[float]) -> np.ndarray:
        """Every planned column, ``(n, len(names))``, from gathered inputs.

        ``session_s`` is each row's video-session duration; rows without
        a positive one get 0.0 flow-duration norms.
        """
        parts = [raw[:, : self._n_raw]]
        with np.errstate(divide="ignore", invalid="ignore"):
            for kind, cols, scales in self._blocks:
                if kind == NORM:
                    total = raw[:, cols[1]]
                    positive = total > 0
                    parts.append(np.where(
                        positive, raw[:, cols[0]] / np.where(positive, total, 1.0), 0.0
                    ))
                elif kind == UTIL:
                    parts.append(np.minimum(1.0, raw[:, cols[0]] / scales))
                else:  # FLOW
                    sess = np.asarray(session_s, dtype=float)[:, None]
                    positive = sess > 0
                    parts.append(np.where(
                        positive, raw[:, cols[0]] / np.where(positive, sess, 1.0), 0.0
                    ))
        return np.concatenate(parts, axis=1)

    def columns(
        self, rows: Sequence[Mapping[str, float]], session_s: Sequence[float]
    ) -> np.ndarray:
        """:meth:`gather` then :meth:`evaluate`."""
        return self.evaluate(self.gather(rows)[0], session_s)


class FeatureConstructor:
    """Adds the paper's constructed features to every instance."""

    def __init__(self) -> None:
        self._nic_max_rates: Dict[str, float] = {}
        self.fitted = False

    # ------------------------------------------------------------------- fit

    def fit(self, dataset: Dataset) -> "FeatureConstructor":
        """Learn per-NIC maximum rates over the whole dataset."""
        return self.fit_stream(dataset)

    def fit_stream(
        self, instances: Iterable[Union[Instance, Dict[str, float]]]
    ) -> "FeatureConstructor":
        """Single-pass fit over any stream of instances or feature dicts.

        The only fitted state is a running per-NIC maximum, which is
        associative — so a streaming fit is *exactly* the batch fit, and
        the stream is never materialized.  Repeated calls keep folding
        new data into the same maxima (continuous-training style).
        """
        maxima = self._nic_max_rates if self.fitted else {}
        for inst in instances:
            features = inst.features if isinstance(inst, Instance) else inst
            for name, value in features.items():
                if name.endswith(_RATE_SUFFIXES):
                    if value > maxima.get(name, 0.0):
                        maxima[name] = value
        self._nic_max_rates = maxima
        self.fitted = True
        return self

    # ---------------------------------------------------------------- recipes

    def recipe(self, name: str) -> Optional[Recipe]:
        """The recipe computing ``name``, or ``None`` for a raw feature.

        ``*_util`` names have a recipe only for NICs with a positive
        fitted maximum.
        """
        if name.endswith("_norm"):
            stem = name[:-5]
            total = _count_total(stem)
            if total is not None:
                return Recipe(NORM, (stem, total))
            if stem in _FLOW_DURATIONS:
                return Recipe(FLOW, (stem,))
        elif name.endswith("_util"):
            rate = name[:-5] + "_rate"
            peak = self._nic_max_rates.get(rate, 0.0)
            if peak > 0:
                return Recipe(UTIL, (rate,), peak)
        return None

    def plan(self, names: Iterable[str]) -> ConstructionPlan:
        """A plan computing ``names`` (raw or constructed) from raw rows."""
        if not self.fitted:
            raise RuntimeError("constructor must be fit before transform")
        return ConstructionPlan(names, self.recipe)

    # -------------------------------------------------------------- transform

    def _constructed(self, keys: Sequence[str], timed: bool) -> List[str]:
        """Names a row with raw ``keys`` gains, in output order."""
        present = set(keys)
        names = [f"{key}_norm" for key in keys if _count_total(key) is not None]
        names += [
            f"{rate[:-5]}_util"
            for rate, peak in self._nic_max_rates.items()
            if rate in present and peak > 0
        ]
        if timed:
            names += [f"{key}_norm" for key in _FLOW_DURATIONS if key in present]
        return names

    def _construct(
        self, rows: Sequence[Dict[str, float]], session_s: Sequence[float]
    ) -> List[Dict[str, float]]:
        """Each row plus its constructed features, one plan per key set."""
        groups: Dict[Tuple[Tuple[str, ...], bool], List[int]] = {}
        for i, (row, session) in enumerate(zip(rows, session_s)):
            groups.setdefault((tuple(row), session > 0), []).append(i)
        out: List[Dict[str, float]] = [{} for _ in rows]
        for (keys, timed), members in groups.items():
            reserved = [key for key in keys if self.recipe(key) is not None]
            # emission order groups the new names by kind, as the plan does
            plan = self.plan(self._constructed(keys, timed) + reserved)
            values = plan.columns(
                [rows[i] for i in members], [session_s[i] for i in members]
            ).tolist()
            for i, row_values in zip(members, values):
                features = dict(rows[i])
                features.update(zip(plan.names, row_values))
                out[i] = features
        return out

    def transform_features(self, features: Dict[str, float]) -> Dict[str, float]:
        """Return ``features`` plus the constructed ones (no session duration)."""
        return self._construct([features], [0.0])[0]

    def transform_instance(self, inst: Instance, session_s: Optional[float] = None) -> Instance:
        session = session_s or float(inst.meta.get("session_s", 0.0) or 0.0)
        return self._with_features(inst, self._construct([inst.features], [session])[0])

    def transform(self, dataset: Dataset) -> Dataset:
        instances = list(dataset)
        features = self._construct(
            [inst.features for inst in instances],
            [float(inst.meta.get("session_s", 0.0) or 0.0) for inst in instances],
        )
        return Dataset(map(self._with_features, instances, features))

    @staticmethod
    def _with_features(inst: Instance, features: Dict[str, float]) -> Instance:
        return Instance(
            features=features,
            labels=dict(inst.labels),
            mos=inst.mos,
            app_metrics=dict(inst.app_metrics),
            meta=dict(inst.meta),
        )

    def fit_transform(self, dataset: Dataset) -> Dataset:
        return self.fit(dataset).transform(dataset)

    # -- persistence -------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the fitted construction state.

        The state is independent of how the training campaign was executed
        (serial or parallel): it only records the dataset-level per-NIC
        maxima the transform needs.
        """
        if not self.fitted:
            raise RuntimeError("constructor must be fit before exporting state")
        return {
            "format": FC_STATE_V1,
            "nic_max_rates": {k: float(v) for k, v in self._nic_max_rates.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "FeatureConstructor":
        """Rebuild a fitted constructor from :meth:`to_state` output."""
        if state.get("format") != FC_STATE_V1:
            raise ValueError("not a repro feature-constructor state")
        constructor = cls()
        constructor._nic_max_rates = {
            str(k): float(v) for k, v in dict(state["nic_max_rates"]).items()
        }
        constructor.fitted = True
        return constructor

    # -- introspection -----------------------------------------------------

    @property
    def nic_max_rates(self) -> Dict[str, float]:
        return dict(self._nic_max_rates)

    def constructed_names(self, base_names: Sequence[str]) -> List[str]:
        """Names this constructor would add given raw ``base_names``."""
        sample = {name: 1.0 for name in base_names}
        return [n for n in self.transform_features(sample) if n not in sample]
