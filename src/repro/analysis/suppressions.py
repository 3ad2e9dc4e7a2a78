"""``# repro: allow[RULE]`` inline suppressions.

A finding is suppressed when its anchor line is *targeted* by a
suppression comment naming its rule id (or ``*``).  Two comment shapes
target two different lines::

    value = rng.choice(options)  # repro: allow[D101,D104]   <- this line

    # repro: allow[D103] reading config at import time is fine
    t0 = time.time()                                         <- next line

A trailing comment applies to its own line; a comment-only line applies
to the line below it (the usual place to explain *why* the rule is being
waived — anything after the closing bracket is free-form justification).
Multiple rules may be listed comma-separated.

Suppressions are per-line and per-rule on purpose: an allow comment is
the only waiver, so each one sits next to the line it excuses.  A
suppression that matches no finding is *stale*, and a stale suppression
fails the run, so waivers do not outlive the violation they excused.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.findings import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[\s*(?P<rules>[A-Za-z0-9_*,\s-]+?)\s*\]"
)


@dataclass
class Suppression:
    """One allow comment: where it sits, what it targets, whether it hit."""

    line: int  # 1-based line the comment is written on
    target: int  # 1-based line it applies to
    rules: Set[str] = field(default_factory=set)
    source: str = ""
    used: bool = False
    #: display path of the file the comment lives in (set by the runner)
    path: str = ""

    def matches(self, rule: str) -> bool:
        return rule in self.rules or "*" in self.rules

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "target": self.target,
            "rules": sorted(self.rules),
            "source": self.source,
            "used": self.used,
        }


def _comment_tokens(source: str) -> List[tokenize.TokenInfo]:
    """Real ``#`` comments only — allow text inside strings is not a
    suppression (doc examples would otherwise read as stale waivers)."""
    try:
        return [
            token
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def parse_suppression_comments(source: str) -> List[Suppression]:
    """All allow comments in a source text, with their target lines."""
    suppressions: List[Suppression] = []
    for token in _comment_tokens(source):
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = {
            part.strip()
            for part in match.group("rules").split(",")
            if part.strip()
        }
        if not rules:
            continue
        lineno, col = token.start
        comment_only = not token.line[:col].strip()
        suppressions.append(
            Suppression(
                line=lineno,
                target=lineno + 1 if comment_only else lineno,
                rules=rules,
                source=token.line.strip(),
            )
        )
    return suppressions


def apply_suppressions(
    findings: List[Finding], allowed: List[Suppression]
) -> List[Finding]:
    """Mark findings targeted by a matching allow comment.

    Mutates ``allowed`` in place: a suppression that excuses at least one
    finding has ``used`` set, so the caller can report the stale rest.
    """
    by_target: Dict[int, List[Suppression]] = {}
    for suppression in allowed:
        by_target.setdefault(suppression.target, []).append(suppression)
    for finding in findings:
        for suppression in by_target.get(finding.line, ()):
            if suppression.matches(finding.rule):
                finding.suppressed = True
                suppression.used = True
    return findings


def stale_suppressions(allowed: List[Suppression]) -> List[Suppression]:
    """Suppressions that excused nothing (after :func:`apply_suppressions`)."""
    return [suppression for suppression in allowed if not suppression.used]
