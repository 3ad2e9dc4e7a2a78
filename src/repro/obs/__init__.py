"""Zero-dependency observability: spans, counters, histograms, traces.

The paper's framework is an always-on measurement pipeline; running it
at production scale demands knowing where wall time and records go
inside the campaign engine, the streaming pipeline and model training.
This package is that layer:

* :class:`Telemetry` — the process-local registry.  Disabled by default:
  every instrument call is then a constant-cost no-op, so instrumented
  hot paths stay bit-identical and effectively free.
* :meth:`Telemetry.span` — nestable context-manager spans (wall time,
  per-span counts, attrs), with no ``start()`` / ``finish()``.
  ``repro lint`` rule O501 enforces the ``with``-only discipline.
* :func:`tracing` — enable collection for a block and export it.
* :mod:`repro.obs.trace` — the ``repro-trace-v1`` JSONL interchange
  format (write/read).
* :mod:`repro.obs.report` — per-stage summary tables (what ``repro
  trace`` prints).
* :mod:`repro.obs.flow` — pipeline boundary metering machinery.

Quick use::

    from repro.obs import tracing, write_trace, summarize, render_summary

    with tracing() as tel:
        run_campaign(config, workers=4)
    payload = tel.export()
    write_trace("campaign-trace.jsonl", payload)
    print(render_summary(summarize(payload)))
"""

from typing import TYPE_CHECKING, Dict, Tuple

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.obs.report import render_summary, summarize
    from repro.obs.telemetry import (
        NULL_SPAN,
        Histogram,
        NullSpan,
        Span,
        Telemetry,
        get_telemetry,
        set_telemetry,
        tracing,
    )
    from repro.obs.trace import TRACE_FORMAT, read_trace, write_trace

#: module -> the public names it defines, each imported on first access
#: (PEP 562), so importing one submodule loads only what it uses.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.obs.report": ("render_summary", "summarize"),
    "repro.obs.telemetry": (
        "NULL_SPAN", "Histogram", "NullSpan", "Span", "Telemetry",
        "get_telemetry", "set_telemetry", "tracing"),
    "repro.obs.trace": ("TRACE_FORMAT", "read_trace", "write_trace"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
