"""Timing wrappers installed from outside around calls into each layer.

Nothing under ``src/`` knows about these: :func:`patch` swaps a function,
method, static or class method for a wrapper that adds the call's wall
time to an :class:`Acc`, and returns an undo callable.  Each
``install_*`` function wires up the wrappers one workload needs and
returns its accumulators by layer-metric name.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class Acc:
    """Accumulated wall time and calls of one wrapped layer."""

    __slots__ = ("total", "calls", "samples")

    def __init__(self, keep_samples: bool = False) -> None:
        self.samples: Optional[List[float]] = [] if keep_samples else None
        self.reset()

    def reset(self) -> None:
        self.total = 0.0
        self.calls = 0
        if self.samples is not None:
            self.samples = []

    def add(self, seconds: float) -> None:
        self.total += seconds
        self.calls += 1
        if self.samples is not None:
            self.samples.append(seconds)

    def to_dict(self) -> Dict[str, object]:
        return {"total": self.total, "calls": self.calls, "samples": self.samples}


def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``owner.attr`` by ``make(original)``; returns the undo.

    Static and class methods are unwrapped first and rewrapped after,
    so ``make`` always receives and returns a plain function.
    """
    raw = vars(owner)[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return lambda: setattr(owner, attr, raw)


def timed(acc: Acc) -> Callable[[Callable], Callable]:
    """A ``make`` for :func:`patch` that times every call into ``acc``."""

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc.add(clock() - t0)

        return wrapper

    return make


# ------------------------------------------------------------ campaign layers

LOCATIONS = ("none", "mobile", "lan", "wan")


def install_campaign(accs: Dict[str, Acc], events: Dict[str, int]) -> List[Callable[[], None]]:
    """Testbed build, session, per-location events and probe read-out."""
    from repro.probes.hardware import HardwareProbe
    from repro.probes.link import LinkProbe
    from repro.probes.radio import RadioProbe
    from repro.probes.tstat import TstatProbe
    from repro.testbed.testbed import Testbed

    accs["testbed.build"] = Acc()
    accs["probes.readout"] = Acc()
    for loc in LOCATIONS:
        accs[f"testbed.session.{loc}"] = Acc()
        events[loc] = 0

    def session(fn: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            before = self.sim.events_processed
            t0 = clock()
            record = fn(self, *args, **kwargs)
            seconds = clock() - t0
            loc = record.fault_location or "none"
            accs[f"testbed.session.{loc}"].add(seconds)
            events[loc] += self.sim.events_processed - before
            return record

        return wrapper

    undo = [
        patch(Testbed, "__init__", timed(accs["testbed.build"])),
        patch(Testbed, "run_video_session", session),
        patch(TstatProbe, "metrics_for", timed(accs["probes.readout"])),
    ]
    for probe in (HardwareProbe, RadioProbe, LinkProbe):
        undo.append(patch(probe, "stop", timed(accs["probes.readout"])))
    return undo


# ------------------------------------------------------- spool-diagnose layers


def install_diagnose(accs: Dict[str, Acc], compiled: Dict[str, int]) -> List[Callable[[], None]]:
    """Spool decode (JSON and record coercion) and the compiled diagnosis path."""
    import repro.pipeline.records as records
    import repro.pipeline.sources as sources
    from repro.core.compiled import CompiledAnalyzer
    from repro.core.diagnosis import RootCauseAnalyzer

    for name in ("pipeline.decode", "pipeline.record", "core.diagnose", "core.predict_rows"):
        accs.setdefault(name, Acc())  # re-installing keeps accumulating
    compiled.setdefault("calls", 0)
    compiled.setdefault("planned", 0)

    def predict_rows(fn: Callable) -> Callable:
        timer = timed(accs["core.predict_rows"])(fn)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = timer(*args, **kwargs)
            compiled["calls"] += 1
            compiled["planned"] += result is not None
            return result

        return wrapper

    return [
        patch(sources, "record_from_json", timed(accs["pipeline.decode"])),
        patch(records, "record_from_dict", timed(accs["pipeline.record"])),
        patch(RootCauseAnalyzer, "diagnose_batch", timed(accs["core.diagnose"])),
        patch(CompiledAnalyzer, "predict_rows", predict_rows),
    ]


# ---------------------------------------------------------------- serve layers


def install_serve(accs: Dict[str, Acc]) -> List[Callable[[], None]]:
    """Body parse, request coercion, batch wait, diagnosis and response encode.

    ``serve.batch_wait`` runs from ``MicroBatcher.submit`` to the start of
    the runner call that scores the request's records.
    """
    import repro.serve.http as http
    from repro.api import DiagnoseRequest, DiagnoseResponse
    from repro.core.diagnosis import RootCauseAnalyzer
    from repro.serve.batcher import MicroBatcher

    for name in ("serve.parse", "api.coerce", "core.diagnose", "api.encode"):
        accs[name] = Acc()
    accs["serve.batch_wait"] = Acc(keep_samples=True)
    submitted: Dict[int, float] = {}

    def submit(fn: Callable) -> Callable:
        def wrapper(self: Any, records: Any) -> Any:
            now = clock()
            for record in records:
                submitted[id(record)] = now
            return fn(self, records)

        return wrapper

    def runner(fn: Callable) -> Callable:
        def wrapper(self: Any, records: Any) -> Any:
            start = clock()
            waits = {submitted.pop(id(r), start) for r in records}
            for t_submit in waits:  # one wait per request (shared submit time)
                accs["serve.batch_wait"].add(start - t_submit)
            return fn(self, records)

        return wrapper

    def encode_json(fn: Callable) -> Callable:
        timer = timed(accs["api.encode"])(fn)

        def wrapper(payload: Any) -> Any:
            if isinstance(payload, dict) and "diagnoses" in payload:
                return timer(payload)
            return fn(payload)

        return wrapper

    return [
        patch(http.DiagnosisServer, "_parse_json", timed(accs["serve.parse"])),
        patch(DiagnoseRequest, "from_dict", timed(accs["api.coerce"])),
        patch(MicroBatcher, "submit", submit),
        patch(http.DiagnosisServer, "_score_batch", runner),
        patch(RootCauseAnalyzer, "diagnose_batch", timed(accs["core.diagnose"])),
        patch(DiagnoseResponse, "from_reports", timed(accs["api.encode"])),
        patch(DiagnoseResponse, "to_dict", timed(accs["api.encode"])),
        patch(http, "canonical_json", encode_json),
    ]
