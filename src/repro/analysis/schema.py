"""Metric-schema pass (rule M201).

The whole pipeline hangs on one shared namespace: probes emit metric
dicts, the testbed prefixes them ``<vp>_<layer>_``, and feature
construction / selection / diagnosis refer back to those names (or to
suffixes of them, since the vantage prefix is applied a layer above).  A
typo on the consumer side is *silent*: lookups default to 0.0 and the
model trains on a column of zeros.

This pass statically recovers both sides of the contract:

* **produced** names — string keys of the metric dicts built inside probe
  emission methods (``metrics`` / ``metrics_for`` / ``stop`` / ...), in
  every module under ``probes/``;
* **consumed** names — (a) elements of module-level ``_*_COUNTERS`` /
  ``_*_SUFFIXES`` / ``*_FEATURES`` / ``*_METRICS`` constants in the
  consumer modules (feature construction, selection, diagnosis, FCBF,
  model export), and (b) the constant fragments of f-strings that splice
  a vantage/direction prefix onto a literal tail, e.g.
  ``f"{vp}_tcp_flow_duration"``.

A consumed name matches when some produced name equals it or is a
``_``-aligned suffix of it (``tcp_flow_duration`` matches produced
``flow_duration``).  Constructed-feature suffixes (``_norm``, ``_util``)
are recognised and stripped before matching.

**M201** (error): consumed but never produced — the silent-zero-fill
hazard.  The reverse direction (produced but never named downstream) is
not a defect: unreferenced metrics still flow into the generic feature
matrix.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.findings import Finding

#: probe methods whose dict keys form the emitted metric namespace
PRODUCER_METHODS = {"metrics", "metrics_for", "stop", "features", "snapshot"}

#: module-level constant names whose string elements are metric references
_CONSUMER_CONST_RE = re.compile(
    r"(COUNTER|COUNTERS|SUFFIX|SUFFIXES|FEATURE|FEATURES|METRIC|METRICS)$"
)

#: a plausible metric name
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: suffixes added by feature construction, not produced by probes
CONSTRUCTED_SUFFIXES = ("_norm", "_util")

#: f-string fragments that are pure construction suffixes, not references
_FRAGMENT_STOPLIST = {"norm", "util"}


@dataclass(frozen=True)
class MetricRef:
    """One occurrence of a metric name in source."""

    name: str
    path: str
    line: int
    col: int


def _iter_dict_keys(node: ast.Dict) -> Iterable[ast.Constant]:
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key


def extract_produced(path: str, source: str) -> List[MetricRef]:
    """Metric names emitted by one probe module."""
    tree = ast.parse(source, filename=path)
    refs: List[MetricRef] = []

    def record(const: ast.Constant) -> None:
        name = const.value
        if _METRIC_NAME_RE.match(name):
            refs.append(MetricRef(name, path, const.lineno, const.col_offset + 1))

    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name not in PRODUCER_METHODS:
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Dict):
                for key in _iter_dict_keys(inner):
                    record(key)
            elif isinstance(inner, ast.Assign):
                for target in inner.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        record(target.slice)
    return refs


def extract_consumed(path: str, source: str) -> List[MetricRef]:
    """Metric names referenced by one consumer module."""
    tree = ast.parse(source, filename=path)
    refs: List[MetricRef] = []

    def record(name: str, node: ast.expr) -> None:
        if _METRIC_NAME_RE.match(name):
            refs.append(MetricRef(name, path, node.lineno, node.col_offset + 1))

    # (a) module-level metric constants
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: ast.expr
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        named = any(
            isinstance(t, ast.Name) and _CONSUMER_CONST_RE.search(t.id.strip("_"))
            for t in targets
        )
        if not named or not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            continue
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                record(element.value, element)

    # (b) f-string tails: f"{vp}_tcp_flow_duration" -> "tcp_flow_duration"
    for node in ast.walk(tree):
        if not isinstance(node, ast.JoinedStr):
            continue
        has_placeholder = any(
            isinstance(part, ast.FormattedValue) for part in node.values
        )
        if not has_placeholder:
            continue
        for part in node.values:
            if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
                continue
            fragment = part.value
            if not fragment.startswith("_"):
                continue  # only prefix-composed tails name a metric
            name = fragment.strip("_")
            if not name or name in _FRAGMENT_STOPLIST:
                continue
            record(name, node)
    return refs


def strip_constructed(name: str) -> str:
    for suffix in CONSTRUCTED_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def is_produced(name: str, produced: Set[str]) -> bool:
    """Whether a consumed name resolves to some produced metric."""
    name = strip_constructed(name)
    if name in produced:
        return True
    # vantage/layer prefixes are applied above the probe layer, so a
    # consumed name may carry extra leading components
    return any(name.endswith("_" + p) for p in produced)


def match_metric_refs(
    produced_refs: List[MetricRef], consumed_refs: List[MetricRef]
) -> Tuple[List[Finding], Dict[str, Set[str]]]:
    """The global half of the pass: match the refs extracted per file.

    Returns ``(findings, namespace)`` where ``namespace`` exposes the
    ``produced`` / ``consumed`` name sets for reporting.
    """
    produced_names = {ref.name for ref in produced_refs}
    consumed_names = {ref.name for ref in consumed_refs}

    findings: List[Finding] = []
    for ref in consumed_refs:
        if not is_produced(ref.name, produced_names):
            findings.append(
                Finding(
                    path=ref.path,
                    line=ref.line,
                    col=ref.col,
                    rule="M201",
                    message=(
                        f"feature name {ref.name!r} is consumed here but no "
                        "probe produces it; lookups will silently zero-fill"
                    ),
                )
            )
    namespace = {"produced": produced_names, "consumed": consumed_names}
    return findings, namespace
