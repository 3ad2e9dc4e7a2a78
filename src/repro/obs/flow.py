"""Pipeline flow metering: per-stage wall time and record counts.

A streaming pipeline interleaves every stage's work inside one generator
chain, so a stage's lifetime is not a lexical block — a context-managed
span cannot measure it.  Instead each stage boundary gets a
:class:`StageMeter` that accumulates the time spent pulling items out of
that stage (*inclusive* time: the stage's own work plus everything
upstream) and counts the records crossing the boundary.  When the flow
ends, :func:`metered_flow`'s finalizer files one aggregate span per
stage via :meth:`~repro.obs.telemetry.Telemetry.record_span`, computing
each stage's *self* time as its inclusive time minus its upstream
neighbour's — the per-stage attribution ``repro trace`` prints.

Records are never copied, reordered or retained: with tracing on the
stream is item-for-item identical to the unmetered chain.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.telemetry import get_telemetry


class StageMeter:
    """Accumulates pull time and record count at one stage boundary."""

    __slots__ = ("name", "position", "records_out", "pull_s", "t_first")

    def __init__(self, name: str, position: int) -> None:
        self.name = name
        self.position = position
        self.records_out = 0
        self.pull_s = 0.0
        self.t_first: Optional[float] = None

    def wrap(self, stream: Iterator[object]) -> Iterator[object]:
        """Meter every ``next()`` on ``stream``, forwarding items as-is."""
        iterator = iter(stream)
        while True:
            t0 = time.perf_counter()
            if self.t_first is None:
                self.t_first = t0
            try:
                item = next(iterator)
            except StopIteration:
                self.pull_s += time.perf_counter() - t0
                return
            self.pull_s += time.perf_counter() - t0
            self.records_out += 1
            yield item


def metered_flow(
    source: Iterable[object],
    stages: Sequence[object],
) -> Tuple[Iterator[object], Callable[[], None]]:
    """Chain ``source`` and ``stages`` with a meter at every boundary.

    Boundaries are named by the object's ``name`` attribute (its type
    name when it has none); the source is position 0.

    Returns ``(stream, finalize)``.  Drain ``stream`` as usual, then call
    ``finalize()`` (with the enclosing pipeline span still open) to file
    the per-stage aggregate spans and counters.  ``finalize`` is
    idempotent-safe only in the sense that metering stops with the flow;
    call it exactly once.
    """
    tel = get_telemetry()
    epoch = time.perf_counter()
    stream: Iterator[object] = iter(source)
    meters: List[StageMeter] = []
    for position, stage in enumerate([source, *stages]):
        if position:
            stream = stage.process(stream)  # type: ignore[attr-defined]
        meter = StageMeter(str(getattr(stage, "name", type(stage).__name__)),
                           position)
        stream = meter.wrap(stream)
        meters.append(meter)

    def finalize() -> None:
        upstream: Optional[StageMeter] = None
        for meter in meters:
            records_in = upstream.records_out if upstream is not None else 0
            self_s = meter.pull_s - (upstream.pull_s if upstream is not None else 0.0)
            t0 = (meter.t_first - epoch) if meter.t_first is not None else 0.0
            tel.record_span(
                f"pipeline.stage.{meter.name}",
                dur_s=meter.pull_s,
                counts={
                    "records_in": records_in,
                    "records_out": meter.records_out,
                },
                attrs={
                    "position": meter.position,
                    "self_s": max(0.0, self_s),
                    "t_offset_s": t0,
                },
            )
            tel.count(f"pipeline.{meter.name}.records_out", meter.records_out)
            upstream = meter

    return stream, finalize
