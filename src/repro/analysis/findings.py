"""Finding and rule definitions for ``repro lint``.

A *rule* is one project invariant the analyzer enforces; a *finding* is
one spot in the source where a rule fires.  Findings carry everything the
reporting layer needs: ``file:line``, rule id, severity and message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: severity levels.  Either fails the run unless the finding is
#: suppressed by an allow comment.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """One enforced invariant."""

    id: str
    name: str
    severity: str
    summary: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"bad severity {self.severity!r} for rule {self.id}")


#: the rule catalog.  Ids are grouped by pass: D1xx determinism,
#: M2xx metric schema, O5xx telemetry usage.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "D101",
            "unseeded-stdlib-random",
            "error",
            "module-level random.* call or unseeded random.Random(); campaign "
            "instances must draw from an explicitly seeded rng",
        ),
        Rule(
            "D102",
            "numpy-global-rng",
            "error",
            "np.random.* global-state call; use np.random.default_rng(seed)",
        ),
        Rule(
            "D103",
            "wall-clock-read",
            "error",
            "wall-clock read (time.time / datetime.now / ...); simulation code "
            "must take time from the simulator clock",
        ),
        Rule(
            "D104",
            "unordered-set-iteration",
            "warning",
            "iteration over an unordered set; wrap in sorted(...) so record "
            "order is deterministic",
        ),
        Rule(
            "D105",
            "session-isolation",
            "error",
            "module-level mutable state in repro/simnet/ outlives the "
            "session: the next session a campaign process runs sees it, so "
            "record i+1 depends on what ran before; scope it to the "
            "Simulator (or suppress with a justification for deliberately "
            "shared, value-safe pools)",
        ),
        Rule(
            "M201",
            "consumed-unproduced-metric",
            "error",
            "metric name consumed by feature construction / selection but never "
            "produced by any probe (would be silently zero-filled)",
        ),
        Rule(
            "O501",
            "telemetry-span-context",
            "error",
            "telemetry span acquired outside a `with` statement; spans nest "
            "through a stack and must be closed by the context manager — use "
            "Telemetry.record_span for non-lexical lifetimes",
        ),
    )
}


@dataclass
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-relative, forward slashes
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = field(default=False, compare=False)

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return (
            f"{self.location()}: {self.severity} {self.rule} "
            f"[{RULES[self.rule].name}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Stable display order: path, line, column, rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
