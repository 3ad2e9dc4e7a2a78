"""Finding and rule definitions for ``repro lint``.

A *rule* is one project invariant the analyzer enforces; a *finding* is
one spot in the source where a rule fires.  Findings carry everything the
reporting layer needs (``file:line``, rule id, severity, message) plus a
stable *fingerprint* used by the baseline so line-number drift does not
resurrect accepted findings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: severity levels, in gating order.  ``error`` and ``warning`` findings
#: fail the run unless baselined or suppressed; ``note`` findings are
#: informational only and never affect the exit status.
SEVERITIES = ("error", "warning", "note")


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
#: M2xx metric schema, F3xx fault lifecycle, O5xx telemetry usage, W7xx
#: wire schema.
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
            "M202",
            "produced-unconsumed-metric",
            "note",
            "probe metric never referenced by name downstream (flows into the "
            "generic feature matrix only)",
        ),
        Rule(
            "F301",
            "fault-lifecycle-pair",
            "error",
            "concrete Fault subclass must define both apply() and clear()",
        ),
        Rule(
            "F302",
            "fault-active-protocol",
            "warning",
            "apply() must set self.active = True and clear() must guard on "
            "self.active and reset it to False",
        ),
        Rule(
            "F303",
            "fault-vantage-scope",
            "error",
            "concrete Fault subclass must declare VANTAGE_SCOPE as a tuple of "
            "vantage points drawn from ('mobile', 'router', 'server')",
        ),
        Rule(
            "W701",
            "wire-tag-literal-outside-registry",
            "error",
            "versioned wire-schema tag written as a string literal outside "
            "the central registry; import the constant from repro.schemas "
            "so producers and consumers cannot drift",
        ),
        Rule(
            "W702",
            "wire-tag-unbalanced",
            "error",
            "registered wire-schema tag with a missing or stale side: no "
            "producer, no consumer, or a declared module that never "
            "references the tag",
        ),
        Rule(
            "W703",
            "unregistered-envelope",
            "error",
            "CLI envelope emitted for a command whose repro-<cmd>-v1 tag "
            "is not registered in repro.schemas",
        ),
        Rule(
            "O501",
            "telemetry-span-context",
            "error",
            "telemetry span acquired outside a `with` statement (or driven "
            "manually via .start()/.finish()); spans nest through a stack and "
            "must be closed by the context manager — use "
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
    #: the stripped source line, used for fingerprinting and display
    source: str = ""
    #: disambiguates repeated identical findings on identical lines
    occurrence: int = 0
    suppressed: bool = field(default=False, compare=False)

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    @property
    def gating(self) -> bool:
        """Whether this finding can fail a lint run."""
        return not self.suppressed and self.severity in ("error", "warning")

    def fingerprint(self) -> str:
        """Stable identity for the baseline: survives line renumbering."""
        payload = "\0".join(
            (self.path, self.rule, self.source.strip(), str(self.occurrence))
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

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
            "fingerprint": self.fingerprint(),
            "suppressed": self.suppressed,
        }


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Stable display order: path, line, column, rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def assign_occurrences(findings: List[Finding]) -> List[Finding]:
    """Number repeated (path, rule, source) triples so fingerprints differ."""
    seen: Dict[tuple, int] = {}
    for finding in sort_findings(findings):
        key = (finding.path, finding.rule, finding.source.strip())
        finding.occurrence = seen.get(key, 0)
        seen[key] = finding.occurrence + 1
    return findings


def rule_catalog() -> List[Rule]:
    """All rules in id order (for ``--rules`` style listings and docs)."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]


def get_rule(rule_id: str) -> Optional[Rule]:
    return RULES.get(rule_id)
