"""Pipeline assembly and execution.

A pipeline is ``source -> Stage*``: any iterable of items feeds a chain
of stages composed into a single lazy iterator, so exactly one record
(or one chunk, for vectorized stages) is in flight at a time and memory
stays constant in the stream length.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.obs.flow import metered_flow
from repro.obs.telemetry import get_telemetry
from repro.pipeline.stages import Sink, Stage


class Pipeline:
    """An assembled streaming flow; iterate it or :meth:`run` it.

    Iterating yields the items leaving the final stage one at a time
    (sinks fire their side effects as items pass).  :meth:`run` drains
    the flow and returns the last sink's ``result()`` — or the item
    count when the pipeline has no sink.  Sinks are closed either way,
    even when the flow raises mid-stream, so spool files and checkpoints
    are always consistent.
    """

    def __init__(self, source: Iterable[object], *stages: Stage) -> None:
        self.source = source
        self.stages: List[Stage] = list(stages)

    @property
    def sinks(self) -> List[Sink]:
        return [stage for stage in self.stages if isinstance(stage, Sink)]

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __iter__(self) -> Iterator[object]:
        tel = get_telemetry()
        if tel.enabled:
            return self._traced_flow()

        def flow() -> Iterator[object]:
            stream: Iterator[object] = iter(self.source)
            for stage in self.stages:
                stream = stage.process(stream)
            try:
                for item in stream:
                    yield item
            finally:
                self.close()

        return flow()

    def _traced_flow(self) -> Iterator[object]:
        """The metered variant of the flow: identical items, plus a trace.

        The source and each stage boundary are wrapped by a
        :class:`~repro.obs.flow.StageMeter`; when the stream ends
        (normally or not) the finalizer files one aggregate
        ``pipeline.stage.<name>`` span per boundary — records in/out,
        inclusive and self wall time — under the enclosing
        ``pipeline.run`` span.
        """
        tel = get_telemetry()
        with tel.span("pipeline.run", stages=1 + len(self.stages)):
            stream, finalize = metered_flow(self.source, self.stages)
            try:
                for item in stream:
                    yield item
            finally:
                finalize()
                self.close()

    def run(self) -> object:
        """Drain the pipeline; return the final sink's result."""
        count = 0
        for _item in self:
            count += 1
        sinks = self.sinks
        if sinks:
            return sinks[-1].result()
        return count
