"""The diagnose stage: chunked, vectorized root-cause analysis.

Wraps a fitted :class:`~repro.core.diagnosis.RootCauseAnalyzer` as a
pipeline stage.  Sessions are diagnosed ``chunk`` at a time through the
vectorized ``diagnose_batch`` path, and each session flows onward paired
with its report (``Diagnosed``), so downstream sinks can print, spool,
or score against ground truth without re-joining two streams.

Labels are identical to calling ``analyzer.diagnose`` per session: the
chunking changes peak memory and throughput, never the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.dataset import chunked
from repro.core.diagnosis import DiagnosisReport, RootCauseAnalyzer
from repro.pipeline.stages import Stage


@dataclass
class Diagnosed:
    """One diagnosed session: the input item plus its report."""

    session: object
    report: DiagnosisReport


class DiagnoseStage(Stage):
    """Diagnose every session flowing through, in vectorized chunks."""

    name = "diagnose"

    def __init__(self, analyzer: RootCauseAnalyzer, chunk: int = 64) -> None:
        if not analyzer.fitted:
            raise RuntimeError("analyzer must be fit before streaming")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.analyzer = analyzer
        self.chunk = chunk

    def process(self, stream: Iterator[object]) -> Iterator[object]:
        for batch in chunked(stream, self.chunk):
            reports = self.analyzer.diagnose_batch(batch)
            for session, report in zip(batch, reports):
                yield Diagnosed(session=session, report=report)
