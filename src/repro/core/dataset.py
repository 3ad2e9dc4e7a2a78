"""Labelled instances, dataset assembly and session-stream chunking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

import numpy as np

T = TypeVar("T")


@dataclass
class Instance:
    """One video session: feature vector plus ground truth.

    ``labels`` holds the three tasks of the paper: ``severity``
    (good/mild/severe, Section 5.1), ``location`` (Section 5.2) and
    ``exact`` (Section 5.3).  Application-layer metrics live in
    ``app_metrics`` and are never part of ``features``.
    """

    features: Dict[str, float]
    labels: Dict[str, str]
    mos: float = 0.0
    app_metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def label(self, kind: str) -> str:
        return self.labels[kind]

    @classmethod
    def from_record(cls, record: object) -> "Instance":
        """The canonical SessionRecord -> Instance conversion.

        Shared by batch assembly (:meth:`Dataset.from_records`) and
        :class:`DatasetBuilder`, so the mapping from records to labelled
        instances exists in exactly one place.
        """
        severity = record.severity_label  # type: ignore[attr-defined]
        return cls(
            features=dict(record.features),  # type: ignore[attr-defined]
            labels={
                "severity": severity,
                "location": record.location_label,  # type: ignore[attr-defined]
                "exact": record.exact_label,  # type: ignore[attr-defined]
                "existence": "good" if severity == "good" else "problematic",
            },
            mos=record.mos,  # type: ignore[attr-defined]
            app_metrics=dict(record.app_metrics),  # type: ignore[attr-defined]
            meta=dict(record.meta),  # type: ignore[attr-defined]
        )


class Dataset:
    """A list of instances with a consistent feature-name universe."""

    def __init__(self, instances: Iterable[Instance]) -> None:
        # Single pass: materialize and union feature names together, so
        # plain iterators/generators are valid input and the stream is
        # walked exactly once.
        self.instances: List[Instance] = []
        names: Set[str] = set()
        for inst in instances:
            self.instances.append(inst)
            names.update(inst.features)
        self.feature_names: List[str] = sorted(names)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable) -> "Dataset":
        """Build from :class:`repro.record.SessionRecord` objects.

        ``records`` may be any iterable, including a lazy campaign
        iterator: it is consumed in a single streaming pass.
        """
        return cls(Instance.from_record(record) for record in records)

    @classmethod
    def from_parts(
        cls, instances: List[Instance], feature_names: Iterable[str]
    ) -> "Dataset":
        """Assemble from already-collected parts without re-walking.

        Trusted constructor for :class:`DatasetBuilder`; ``feature_names``
        must cover every feature of ``instances``.
        """
        dataset = cls.__new__(cls)
        dataset.instances = instances
        dataset.feature_names = sorted(set(feature_names))
        return dataset

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def __getitem__(self, index: int) -> Instance:
        return self.instances[index]

    def labels(self, kind: str) -> np.ndarray:
        return np.array([inst.label(kind) for inst in self.instances])

    def to_matrix(self, feature_subset: Optional[Sequence[str]] = None) -> np.ndarray:
        """Dense (n, f) matrix; missing features are zero-filled."""
        names = list(feature_subset) if feature_subset is not None else self.feature_names
        out = np.zeros((len(self.instances), len(names)))
        for i, inst in enumerate(self.instances):
            feats = inst.features
            for j, name in enumerate(names):
                out[i, j] = feats.get(name, 0.0)
        return out

    def filter(self, predicate: Callable[[Instance], bool]) -> "Dataset":
        return Dataset([inst for inst in self.instances if predicate(inst)])

    def label_counts(self, kind: str) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for inst in self.instances:
            label = inst.label(kind)
            counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items()))

    def merged_with(self, other: "Dataset") -> "Dataset":
        return Dataset(self.instances + other.instances)


class DatasetBuilder:
    """Incremental, single-pass dataset assembly for streaming flows.

    Instances are added one at a time while the feature-name universe is
    unioned on the fly; :meth:`build` hands both to :class:`Dataset`
    without another walk over the data.  The builder is the dataset-side
    half of the constant-memory pipeline: upstream stages never need to
    materialize the record stream to construct a dataset at the end.
    """

    def __init__(self) -> None:
        self._instances: List[Instance] = []
        self._names: Set[str] = set()

    def __len__(self) -> int:
        return len(self._instances)

    def add(self, instance: Instance) -> None:
        self._instances.append(instance)
        self._names.update(instance.features)

    def add_record(self, record: object) -> None:
        """Convert a :class:`SessionRecord` and add it."""
        self.add(Instance.from_record(record))

    def build(self) -> Dataset:
        """The assembled dataset; the builder can keep accumulating."""
        return Dataset.from_parts(list(self._instances), self._names)


def chunked(stream: Iterable[T], size: int) -> Iterator[List[T]]:
    """Yield successive lists of up to ``size`` items from ``stream``.

    The workhorse of every vectorized streaming path (``diagnose_stream``,
    the pipeline's diagnose stage): bounded batches give numpy-sized work
    units without materializing the stream.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    chunk: List[T] = []
    for item in stream:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
