"""Pipeline sinks: where streamed items land.

``JsonlSink`` spools session records to disk with per-record checkpoints
(the durable end of a campaign stream — constant memory, resumable).
``DatasetSink`` assembles a :class:`~repro.core.dataset.Dataset`
incrementally; ``CountSink`` is the forget-everything terminal (to keep
every item, ``list(pipeline)``).  All sinks pass items through
unchanged, so they can be placed mid-pipeline (spool *and* diagnose in
one flow).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, TextIO, Union

from repro.core.dataset import Dataset, DatasetBuilder, Instance
from repro.obs.telemetry import get_telemetry
from repro.pipeline.checkpoint import (
    Checkpoint,
    clear_checkpoint,
    save_checkpoint,
)
from repro.pipeline.stages import Sink
from repro.record import SessionRecord, record_to_json


class JsonlSink(Sink):
    """Spool session records to a JSONL file with checkpoint sidecar.

    Each record is written and flushed before its checkpoint is bumped,
    so the ``(spool, sidecar)`` pair is always resumable: at most the
    final, un-checkpointed line can be lost to a crash, and
    :func:`repro.pipeline.checkpoint.resume_position` truncates it away.

    ``start`` is the number of already-completed records when resuming
    (the sink appends and continues counting from there).  When the
    stream finishes cleanly the sidecar is dropped (a finished spool
    needs no resume marker) unless ``keep_checkpoint`` is true; an
    interrupted stream always keeps it, so the campaign can resume.
    """

    name = "jsonl-spool"

    def __init__(
        self,
        path: Union[str, Path],
        config_key: str = "",
        start: int = 0,
        keep_checkpoint: bool = False,
    ) -> None:
        self.path = Path(path)
        self.config_key = config_key
        self.completed = start
        self.keep_checkpoint = keep_checkpoint
        self._stream_completed = False
        mode = "a" if start else "w"
        self._fh: Optional[TextIO] = self.path.open(mode, encoding="utf-8")

    def consume(self, item: object) -> None:
        if self._fh is None:
            raise RuntimeError("sink is closed")
        assert isinstance(item, SessionRecord)
        self._fh.write(record_to_json(item) + "\n")
        self._fh.flush()
        self.completed += 1
        save_checkpoint(
            self.path,
            Checkpoint(config_key=self.config_key, completed=self.completed),
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.count("pipeline.checkpoint.saves")
            tel.event(
                "checkpoint.save",
                spool=str(self.path),
                completed=self.completed,
            )

    def result(self) -> object:
        return self.completed

    def on_complete(self) -> None:
        self._stream_completed = True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            if self._stream_completed and not self.keep_checkpoint:
                clear_checkpoint(self.path)
                tel = get_telemetry()
                if tel.enabled:
                    tel.event(
                        "checkpoint.clear",
                        spool=str(self.path),
                        completed=self.completed,
                    )


class DatasetSink(Sink):
    """Assemble a :class:`Dataset` incrementally from the stream.

    Accepts ``SessionRecord`` and ``Instance`` items alike.  The dataset
    itself is the one deliberately-materialized object of the flow; the
    assembly is single-pass and never re-walks what it has collected.
    """

    name = "dataset"

    def __init__(self) -> None:
        self._builder = DatasetBuilder()

    def consume(self, item: object) -> None:
        if isinstance(item, Instance):
            self._builder.add(item)
        else:
            self._builder.add_record(item)

    def result(self) -> Dataset:
        return self._builder.build()


class CountSink(Sink):
    """Count items (and severity labels when present), retaining nothing.

    The truly constant-memory terminal: useful for smoke runs and for
    measuring the pipeline's memory floor.
    """

    name = "count"

    def __init__(self) -> None:
        self.count = 0
        self.severity_counts: Dict[str, int] = {}

    def consume(self, item: object) -> None:
        self.count += 1
        severity = getattr(item, "severity_label", None)
        if severity is None:
            report = getattr(item, "report", None)
            severity = getattr(report, "severity", None)
        if severity is not None:
            self.severity_counts[severity] = self.severity_counts.get(severity, 0) + 1

    def result(self) -> Dict[str, object]:
        return {"count": self.count, "severity": dict(sorted(self.severity_counts.items()))}
