"""Trace summaries: from a raw export payload to a per-stage table.

``summarize`` reduces a ``repro-trace-v1`` payload (live export or
:func:`repro.obs.trace.read_trace` output) to the operational questions
the trace exists to answer — where did wall time go, and where did
records go::

    stage      in    out   inclusive   self
    campaign    0     50      12.41s  12.41s
    jsonl-spool 50    50      12.47s   0.06s
    count       50    50      12.48s   0.01s

plus per-worker campaign attribution and aggregate ML timings.
``render_summary`` turns that into the aligned text table ``repro
trace`` prints; the summary dict itself is the ``--json`` output.
"""

from __future__ import annotations

from typing import Dict, List

#: span names the campaign layer emits
INSTANCE_SPAN = "campaign.instance"
#: prefix of the per-stage aggregate spans the pipeline layer emits
STAGE_SPAN_PREFIX = "pipeline.stage."


def _fmt_seconds(value: float) -> str:
    if value >= 100.0:
        return f"{value:.0f}s"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def summarize(payload: Dict[str, object]) -> Dict[str, object]:
    """Aggregate a trace payload into stage / worker / ML summaries."""
    spans: List[Dict[str, object]] = list(payload.get("spans") or [])  # type: ignore[arg-type]

    stages: List[Dict[str, object]] = []
    for span in spans:
        name = str(span.get("name", ""))
        if not name.startswith(STAGE_SPAN_PREFIX):
            continue
        counts = dict(span.get("counts") or {})  # type: ignore[arg-type]
        attrs = dict(span.get("attrs") or {})  # type: ignore[arg-type]
        stages.append(
            {
                "stage": name[len(STAGE_SPAN_PREFIX):],
                "position": int(attrs.get("position", len(stages))),
                "records_in": int(counts.get("records_in", 0)),
                "records_out": int(counts.get("records_out", 0)),
                "inclusive_s": float(span.get("dur_s", 0.0)),
                "self_s": float(attrs.get("self_s", span.get("dur_s", 0.0))),
            }
        )
    stages.sort(key=lambda row: row["position"])

    workers: Dict[str, Dict[str, float]] = {}
    instances = 0
    instance_total = 0.0
    instance_max = 0.0
    for span in spans:
        if str(span.get("name", "")) != INSTANCE_SPAN:
            continue
        attrs = dict(span.get("attrs") or {})  # type: ignore[arg-type]
        dur = float(span.get("dur_s", 0.0))
        instances += 1
        instance_total += dur
        instance_max = max(instance_max, dur)
        key = str(attrs.get("worker", "main"))
        bucket = workers.setdefault(key, {"instances": 0, "busy_s": 0.0})
        bucket["instances"] += 1
        bucket["busy_s"] += dur

    ml: Dict[str, Dict[str, float]] = {}
    for span in spans:
        name = str(span.get("name", ""))
        if not (name.startswith("ml.") or name.startswith("analyzer.")
                or name.startswith("diagnose.")):
            continue
        bucket = ml.setdefault(name, {"calls": 0, "total_s": 0.0})
        bucket["calls"] += 1
        bucket["total_s"] += float(span.get("dur_s", 0.0))

    wall_s = 0.0
    for span in spans:
        if span.get("parent") is None:
            wall_s = max(wall_s, float(span.get("dur_s", 0.0)))

    return {
        "wall_s": wall_s,
        "stages": stages,
        "campaign": {
            "instances": instances,
            "busy_s": instance_total,
            "mean_s": instance_total / instances if instances else 0.0,
            "max_s": instance_max,
            "workers": {
                key: dict(value) for key, value in sorted(workers.items())
            },
        },
        "ml": {name: dict(value) for name, value in sorted(ml.items())},
        "counters": dict(payload.get("counters") or {}),  # type: ignore[arg-type]
        "events": len(list(payload.get("events") or [])),  # type: ignore[arg-type]
    }


def render_summary(summary: Dict[str, object]) -> str:
    """The human-readable per-stage table ``repro trace`` prints."""
    lines: List[str] = []
    wall = float(summary.get("wall_s", 0.0))
    lines.append(f"trace: wall {_fmt_seconds(wall)}" if wall else "trace:")

    stages: List[Dict[str, object]] = list(summary.get("stages") or [])  # type: ignore[arg-type]
    if stages:
        lines.append("")
        header = (f"  {'stage':<14} {'in':>7} {'out':>7} "
                  f"{'inclusive':>10} {'self':>9}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in stages:
            lines.append(
                f"  {str(row['stage']):<14} {int(row['records_in']):>7} "
                f"{int(row['records_out']):>7} "
                f"{_fmt_seconds(float(row['inclusive_s'])):>10} "
                f"{_fmt_seconds(float(row['self_s'])):>9}"
            )

    campaign: Dict[str, object] = dict(summary.get("campaign") or {})  # type: ignore[arg-type]
    instances = int(campaign.get("instances", 0))
    if instances:
        lines.append("")
        lines.append(
            f"  campaign: {instances} instances, "
            f"busy {_fmt_seconds(float(campaign.get('busy_s', 0.0)))}, "
            f"mean {_fmt_seconds(float(campaign.get('mean_s', 0.0)))}, "
            f"max {_fmt_seconds(float(campaign.get('max_s', 0.0)))}"
        )
        workers: Dict[str, Dict[str, float]] = dict(campaign.get("workers") or {})  # type: ignore[arg-type]
        if len(workers) > 1 or (workers and "main" not in workers):
            for key, bucket in workers.items():
                lines.append(
                    f"    worker {key}: {int(bucket['instances'])} instances, "
                    f"busy {_fmt_seconds(float(bucket['busy_s']))}"
                )

    ml: Dict[str, Dict[str, float]] = dict(summary.get("ml") or {})  # type: ignore[arg-type]
    if ml:
        lines.append("")
        for name, bucket in ml.items():
            lines.append(
                f"  {name}: {int(bucket['calls'])} calls, "
                f"total {_fmt_seconds(float(bucket['total_s']))}"
            )

    counters: Dict[str, int] = dict(summary.get("counters") or {})  # type: ignore[arg-type]
    if counters:
        lines.append("")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name} = {value}")
    return "\n".join(lines)
