"""Project-invariant static analysis (``repro lint``).

Three AST pass families protect the invariants the reproduction depends
on:

* determinism (D1xx) — no unseeded RNG, wall-clock reads, or unordered
  iteration in the simulation/campaign packages;
* metric schema (M201) — every metric name feature construction and
  selection consume must be produced by some probe (the silent-zero-fill
  hazard);
* telemetry usage (O501) — spans acquired as ``with`` contexts only.

One sequential pass analyzes each file in memory
(:func:`repro.analysis.runner.analyze_file`), then the metric-name match
runs over the per-file facts; nothing is written to disk.  The fault
lifecycle and the wire-schema registry are checked by plain tests that
import the real objects (``tests/faults/test_faults.py``,
``tests/test_schemas.py``).

Library use::

    from repro.analysis import lint_paths
    result = lint_paths([Path("src/repro")])
    assert result.ok, result.summary()
"""

from repro.analysis.determinism import check_determinism
from repro.analysis.findings import Finding, RULES, Rule
from repro.analysis.runner import (
    FileFacts,
    LintResult,
    analyze_file,
    lint_paths,
    render_text,
    rule_table,
)
from repro.analysis.sarif import to_sarif, write_sarif
from repro.analysis.suppressions import Suppression, parse_suppression_comments

__all__ = [
    "FileFacts",
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "Suppression",
    "analyze_file",
    "check_determinism",
    "lint_paths",
    "parse_suppression_comments",
    "render_text",
    "rule_table",
    "to_sarif",
    "write_sarif",
]
