"""Lint driver: file discovery, per-file analysis, global passes, reporting.

``lint_paths`` is the library entry point (the CLI's ``repro lint`` is a
thin wrapper).  One sequential pass in two stages:

1. **Per-file** — :func:`analyze_file` runs every local pass (O5xx
   everywhere; D1xx on the simulation packages) and extracts the metric
   facts the global pass needs, as an in-memory :class:`FileFacts`.
2. **Global** — metric-schema matching (M201) runs over the per-file
   facts when the run includes the producer package (a run without it,
   such as ``repro lint src/repro/core``, cannot know what is produced),
   then suppressions are applied.  Every unsuppressed finding and
   every stale suppression fails the run.

Files are analyzed in sorted order and findings are globally re-sorted,
so the output is deterministic.

Paths outside the ``repro`` package (e.g. test fixture trees) are routed
by their top-level directory relative to the lint root, so the passes are
testable on synthetic trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.determinism import check_determinism
from repro.analysis.findings import Finding, RULES, sort_findings
from repro.analysis.obs_usage import check_obs_usage
from repro.analysis.schema import (
    MetricRef,
    extract_consumed,
    extract_produced,
    match_metric_refs,
)
from repro.analysis.suppressions import (
    Suppression,
    apply_suppressions,
    parse_suppression_comments,
    stale_suppressions,
)

__all__ = [
    "CONSUMER_MODULES",
    "DETERMINISM_PACKAGES",
    "FileFacts",
    "LintResult",
    "PRODUCER_PACKAGE",
    "analyze_file",
    "display_path",
    "lint_paths",
    "package_relative",
    "render_text",
    "rule_table",
]


# ---------------------------------------------------------------- routing

#: packages whose modules must stay deterministic (D1xx)
DETERMINISM_PACKAGES = ("simnet", "faults", "testbed", "traffic", "video")

#: package whose modules produce the metric namespace (M201)
PRODUCER_PACKAGE = "probes"

#: modules that consume metric names (package-relative posix paths)
CONSUMER_MODULES = (
    "core/construction.py",
    "core/diagnosis.py",
    "core/selection.py",
    "core/vantage.py",
    "ml/fcbf.py",
    "ml/export.py",
)


def _top_package(rel: str) -> str:
    return rel.split("/", 1)[0] if "/" in rel else ""


@dataclass
class FileFacts:
    """Everything lint needs from one file."""

    shown: str  # display path (relative to the lint root)
    rel: str  # package-relative path (routing)
    parse_error: Optional[str] = None
    #: per-file findings (O5xx, D1xx), pre-suppression
    findings: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    produced: List[MetricRef] = field(default_factory=list)
    consumed: List[MetricRef] = field(default_factory=list)


def analyze_file(shown: str, rel: str, source: str) -> FileFacts:
    """All per-file lint work — a pure function of the source text."""
    facts = FileFacts(shown=shown, rel=rel)
    try:
        ast.parse(source, filename=shown)
    except SyntaxError as exc:
        facts.parse_error = f"{shown}:{exc.lineno}: syntax error"
        return facts

    facts.suppressions = parse_suppression_comments(source)
    facts.findings.extend(check_obs_usage(shown, source))

    top = _top_package(rel)
    if top in DETERMINISM_PACKAGES:
        facts.findings.extend(check_determinism(shown, source))
    if top == PRODUCER_PACKAGE:
        facts.produced = extract_produced(shown, source)
    if rel in CONSUMER_MODULES:
        facts.consumed = extract_consumed(shown, source)
    return facts


@dataclass
class LintResult:
    """Everything one lint run learned."""

    findings: List[Finding] = field(default_factory=list)
    #: every unsuppressed finding (the envelope's ``new`` key)
    new_findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stale_suppressions: List[Suppression] = field(default_factory=list)
    parse_errors: List[str] = field(default_factory=list)
    files_checked: int = 0
    namespace: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (
            self.new_findings or self.stale_suppressions or self.parse_errors
        )

    def summary(self) -> str:
        parts = [
            f"{self.files_checked} files",
            f"{len(self.new_findings)} findings",
            f"{len(self.suppressed)} suppressed",
        ]
        if self.stale_suppressions:
            parts.append(f"{len(self.stale_suppressions)} stale suppressions")
        if self.parse_errors:
            parts.append(f"{len(self.parse_errors)} parse errors")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "new": [f.to_dict() for f in self.new_findings],
            # no baseline and no note-severity rule any more; the keys stay
            # so the repro-lint-v1 envelope keeps its shape
            "baselined": [],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "notes": [],
            "stale_suppressions": [
                s.to_dict() for s in self.stale_suppressions
            ],
            "parse_errors": list(self.parse_errors),
            "namespace": {
                key: sorted(value) for key, value in self.namespace.items()
            },
        }


def _discover(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # dedupe, keep order
    seen: Set[Path] = set()
    unique: List[Path] = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def package_relative(path: Path, root: Path) -> str:
    """Posix path relative to the ``repro`` package (or the lint root)."""
    parts = list(path.resolve().parts)
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        rel = parts[index + 1:]
        if rel:
            return "/".join(rel)
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def display_path(path: Path, root: Path) -> str:
    """The path findings report: relative to the lint root when possible."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path], root: Optional[Path] = None
) -> LintResult:
    """Run every pass over ``paths``."""
    paths = [Path(p) for p in paths]
    root = Path.cwd() if root is None else Path(root)
    result = LintResult()
    files = _discover(paths)
    result.files_checked = len(files)

    model: List[FileFacts] = []
    for file in files:
        shown = display_path(file, root)
        rel = package_relative(file, root)
        try:
            source = file.read_text()
        except OSError as exc:
            result.parse_errors.append(f"{shown}: unreadable ({exc})")
            continue
        model.append(analyze_file(shown, rel, source))

    raw: List[Finding] = []
    suppressions: List[Suppression] = []
    suppressions_by_path: Dict[str, List[Suppression]] = {}
    produced: List[MetricRef] = []
    consumed: List[MetricRef] = []
    has_producers = False
    for facts in sorted(model, key=lambda f: f.shown):
        has_producers |= _top_package(facts.rel) == PRODUCER_PACKAGE
        if facts.parse_error is not None:
            result.parse_errors.append(facts.parse_error)
            continue
        raw.extend(facts.findings)
        for suppression in facts.suppressions:
            suppression.path = facts.shown
        suppressions_by_path[facts.shown] = facts.suppressions
        suppressions.extend(facts.suppressions)
        produced.extend(facts.produced)
        consumed.extend(facts.consumed)

    if has_producers:
        schema_findings, namespace = match_metric_refs(produced, consumed)
        raw.extend(schema_findings)
        result.namespace = namespace

    by_path: Dict[str, List[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    for shown, path_findings in by_path.items():
        apply_suppressions(
            path_findings, suppressions_by_path.get(shown, [])
        )
    result.stale_suppressions = sorted(
        stale_suppressions(suppressions), key=lambda s: (s.path, s.line)
    )

    result.findings = sort_findings(raw)
    result.suppressed = [f for f in result.findings if f.suppressed]
    result.new_findings = [f for f in result.findings if not f.suppressed]
    return result


def render_text(result: LintResult) -> str:
    """Human-readable report, one finding per line."""
    lines: List[str] = []
    for error in result.parse_errors:
        lines.append(f"{error}")
    for finding in result.new_findings:
        lines.append(finding.render())
    for suppression in result.stale_suppressions:
        lines.append(
            f"{suppression.path}:{suppression.line}: stale suppression "
            f"({suppression.source}) excuses nothing"
        )
    lines.append(f"repro lint: {result.summary()}")
    lines.append("result: " + ("clean" if result.ok else "FINDINGS"))
    return "\n".join(lines)


def rule_table() -> List[Tuple[str, str, str, str]]:
    """(id, name, severity, summary) rows for docs and ``--rules``."""
    return [
        (rule.id, rule.name, rule.severity, rule.summary)
        for rule in (RULES[rule_id] for rule_id in sorted(RULES))
    ]
