"""The instance stage: records -> labelled instances.

``InstanceStage`` performs the canonical SessionRecord -> Instance
conversion (one shared code path with ``Dataset.from_records``).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.dataset import Instance
from repro.pipeline.stages import Stage


class InstanceStage(Stage):
    """Convert :class:`SessionRecord` items into labelled ``Instance``s."""

    name = "instances"
    CONSUMES = (
        "features",
        "app_metrics",
        "mos",
        "severity_label",
        "location_label",
        "exact_label",
        "meta",
    )
    PRODUCES = ("features", "labels", "mos", "app_metrics", "meta")

    def process(self, stream: Iterator[object]) -> Iterator[object]:
        for record in stream:
            yield Instance.from_record(record)
