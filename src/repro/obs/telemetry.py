"""The process-local telemetry registry: spans, counters, histograms.

Everything the observability layer collects flows through one
:class:`Telemetry` instance per process (``get_telemetry()``).  The
registry is **disabled by default**: every instrument call then takes the
constant-cost early-return path (``span()`` hands back one shared no-op
span, ``count()``/``observe()``/``event()`` return immediately), so
instrumented hot paths stay bit-identical and near-zero-cost with
tracing off.  Nothing here touches the simulation clock or any RNG —
telemetry can never perturb campaign records.

Spans
-----

A span measures one wall-clock interval (``time.perf_counter``) plus
per-span ``counts`` and static ``attrs``.  Spans nest through a plain
stack, so the parent of a span is whatever span was open when it
started::

    tel = get_telemetry()
    with tel.span("campaign.run", kind="controlled") as sp:
        with tel.span("campaign.instance", index=0):
            ...
        sp.count("instances")

Spans are context managers **only** — a span has no ``start()`` or
``finish()``, and ``repro lint`` rule O501 rejects a ``span(...)`` call
that is not the context expression of a ``with`` statement, because a
span that is opened but never closed corrupts the nesting stack.  Non-lexical lifetimes (e.g. per-stage aggregates
measured across a whole pipeline drain) go through
:meth:`Telemetry.record_span`, which files an already-measured span
without ever opening one.

Workers
-------

A forked campaign worker collects into its own registry and ships
:meth:`Telemetry.export` payloads back with each result; the parent
:meth:`Telemetry.absorb`\\ s them — span ids are re-based, the spans hang
off whatever span the parent currently has open, and counters and
histograms merge additively, so a ``workers=4`` trace aggregates exactly
like a serial one while keeping per-worker attribution in span attrs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from types import TracebackType
from typing import Dict, Iterator, List, Optional, Type, Union

from repro.schemas import TRACE_V1

#: JSON-safe attribute values accepted on spans and events
AttrValue = Union[str, int, float, bool, None]

#: maximum retained events; beyond it new events are counted but dropped
MAX_EVENTS = 10_000


class Span:
    """One timed interval in the trace tree (use only via ``with``)."""

    __slots__ = ("telemetry", "id", "parent", "name", "t0", "dur_s",
                 "counts", "attrs")

    def __init__(
        self,
        telemetry: "Telemetry",
        span_id: int,
        parent: Optional[int],
        name: str,
        attrs: Dict[str, AttrValue],
    ) -> None:
        self.telemetry = telemetry
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = 0.0
        self.dur_s = 0.0
        self.counts: Dict[str, int] = {}
        self.attrs = attrs

    def count(self, name: str, n: int = 1) -> None:
        """Bump a span-local counter (e.g. records seen in this span)."""
        self.counts[name] = self.counts.get(name, 0) + n

    def set(self, name: str, value: AttrValue) -> None:
        """Attach/overwrite one attribute after the span has started."""
        self.attrs[name] = value

    def __enter__(self) -> "Span":
        self.telemetry._push(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.telemetry._pop(self)

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "t0": self.t0,
            "dur_s": self.dur_s,
            "counts": dict(self.counts),
            "attrs": dict(self.attrs),
        }


class NullSpan:
    """The shared no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def set(self, name: str, value: AttrValue) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        pass


#: the singleton no-op span: zero allocation on the disabled path
NULL_SPAN = NullSpan()

SpanLike = Union[Span, NullSpan]


class Histogram:
    """Streaming summary of observed values: count / sum / min / max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: Dict[str, float]) -> None:
        """Fold an exported histogram dict into this one (worker merge)."""
        count = int(other.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(other.get("total", 0.0))
        self.min = min(self.min, float(other.get("min", self.min)))
        self.max = max(self.max, float(other.get("max", self.max)))

    def to_dict(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class Telemetry:
    """Process-local collection point for spans, counters and histograms.

    Single-threaded by design (the repo parallelises with processes, not
    threads): spans nest through one stack, and forked workers ship their
    own registries back to the parent via :meth:`export`/:meth:`absorb`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._stack: List[Span] = []
        self._spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[Dict[str, object]] = []

    # ------------------------------------------------------------ lifecycle

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected data and restart the trace clock."""
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._stack = []
        self._spans = []
        self.counters = {}
        self.histograms = {}
        self.events = []

    # ------------------------------------------------------------ instruments

    def span(self, name: str, **attrs: AttrValue) -> SpanLike:
        """A new child span of whatever span is currently open.

        Must be used as a context manager (``with tel.span(...):``), the
        only way to close it; rule O501 enforces this statically.  Returns the shared
        :data:`NULL_SPAN` when disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, 0, None, name, dict(attrs))
        return span

    def count(self, name: str, n: int = 1) -> None:
        """Bump a registry-level counter."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one value into a named histogram."""
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def event(self, name: str, **attrs: AttrValue) -> None:
        """Record a point-in-time event (e.g. a checkpoint save)."""
        if not self.enabled:
            return
        self.count("events.total")
        if len(self.events) >= MAX_EVENTS:
            self.count("events.dropped")
            return
        self.events.append(
            {"name": name, "t": self._now(), "attrs": dict(attrs)}
        )

    def record_span(
        self,
        name: str,
        dur_s: float,
        t0: Optional[float] = None,
        counts: Optional[Dict[str, int]] = None,
        attrs: Optional[Dict[str, AttrValue]] = None,
    ) -> None:
        """File an already-measured span (machinery API).

        For non-lexical lifetimes — e.g. a pipeline stage's aggregate
        wall time, measured across interleaved generator pulls — where a
        context-managed span cannot express the interval.  The span is
        parented to whatever span is currently open and never touches
        the nesting stack.
        """
        if not self.enabled:
            return
        span = Span(
            self,
            self._next_id,
            self._stack[-1].id if self._stack else None,
            name,
            dict(attrs or {}),
        )
        self._next_id += 1
        span.t0 = self._now() - dur_s if t0 is None else t0
        span.dur_s = dur_s
        if counts:
            span.counts = dict(counts)
        self._spans.append(span)

    # ------------------------------------------------------------ span stack

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _push(self, span: Span) -> None:
        span.id = self._next_id
        self._next_id += 1
        span.parent = self._stack[-1].id if self._stack else None
        span.t0 = self._now()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.dur_s = self._now() - span.t0
        # Tolerate a corrupted stack (a span leaked past its parent's
        # exit) instead of crashing the instrumented program.
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()
        self._spans.append(span)

    # ------------------------------------------------------------ aggregation

    def export(self, **meta: AttrValue) -> Dict[str, object]:
        """A JSON-safe snapshot of everything collected so far.

        Open spans are not included — only finished ones.  ``meta``
        key/values land in the payload's ``meta`` dict (e.g.
        ``worker=os.getpid()``).
        """
        spans = sorted(self._spans, key=lambda s: (s.t0, s.id))
        return {
            "format": TRACE_V1,
            "meta": {"pid": os.getpid(), **meta},
            "spans": [span.to_dict() for span in spans],
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
            "events": [dict(event) for event in self.events],
        }

    def absorb(
        self, payload: Dict[str, object], worker: Optional[AttrValue] = None
    ) -> None:
        """Merge a child registry's :meth:`export` payload into this one.

        Span ids are re-based past this registry's counter; top-level
        absorbed spans hang off the currently open span; every absorbed
        span is stamped with ``worker`` (default: the payload's pid).
        Counters add, histograms merge, events append.
        """
        if not self.enabled:
            return
        if payload.get("format") != TRACE_V1:
            raise ValueError(f"not a {TRACE_V1} payload")
        meta = payload.get("meta") or {}
        if worker is None:
            worker = meta.get("pid") if isinstance(meta, dict) else None
        base = self._next_id
        top_parent = self._stack[-1].id if self._stack else None
        max_id = 0
        for raw in payload.get("spans", []):  # type: ignore[union-attr]
            span = Span(
                self,
                base + int(raw["id"]),
                (base + int(raw["parent"])
                 if raw.get("parent") is not None else top_parent),
                str(raw["name"]),
                dict(raw.get("attrs") or {}),
            )
            if worker is not None and "worker" not in span.attrs:
                span.attrs["worker"] = worker
            span.t0 = float(raw.get("t0", 0.0))
            span.dur_s = float(raw.get("dur_s", 0.0))
            span.counts = {
                str(k): int(v) for k, v in (raw.get("counts") or {}).items()
            }
            self._spans.append(span)
            max_id = max(max_id, int(raw["id"]))
        self._next_id = base + max_id + 1
        for name, value in (payload.get("counters") or {}).items():  # type: ignore[union-attr]
            self.counters[name] = self.counters.get(name, 0) + int(value)
        for name, blob in (payload.get("histograms") or {}).items():  # type: ignore[union-attr]
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge(blob)
        for event in payload.get("events", []):  # type: ignore[union-attr]
            if len(self.events) >= MAX_EVENTS:
                break
            event = dict(event)
            if worker is not None:
                attrs = dict(event.get("attrs") or {})
                attrs.setdefault("worker", worker)
                event["attrs"] = attrs
            self.events.append(event)

    # ------------------------------------------------------------ inspection

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (mutating is undefined)."""
        return self._spans


#: the process-local registry every instrumented call site uses
_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-local registry (disabled unless someone enabled it)."""
    return _TELEMETRY


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the process-local registry; returns the previous one.

    Machinery for campaign workers, which collect each instance into a
    scratch registry so only that instance's data ships back.
    """
    global _TELEMETRY
    previous = _TELEMETRY
    _TELEMETRY = telemetry
    return previous


@contextmanager
def tracing(enabled: bool = True) -> Iterator[Telemetry]:
    """Enable (and reset) the process registry for the duration of a block.

    The previous enabled/disabled state is restored on exit; the
    collected data is left in place so the caller can ``export()`` it::

        with tracing() as tel:
            run_campaign(config)
        trace = tel.export()
    """
    tel = get_telemetry()
    was_enabled = tel.enabled
    tel.reset()
    tel.enabled = enabled
    try:
        yield tel
    finally:
        tel.enabled = was_enabled
