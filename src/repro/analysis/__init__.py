"""Project-invariant static analysis (``repro lint``).

Five AST pass families protect the invariants the reproduction depends
on:

* determinism (D1xx) — no unseeded RNG, wall-clock reads, or unordered
  iteration in the simulation/campaign packages;
* metric schema (M201/M202) — probe-emitted and downstream-consumed
  metric names must agree (the silent-zero-fill hazard);
* fault lifecycle (F3xx) — every concrete fault pairs inject/teardown,
  maintains the ``active`` flag, and declares its vantage-point scope;
* telemetry usage (O5xx) — spans acquired as ``with`` contexts only;
* wire schema (W7xx) — every ``repro-*-vN`` tag lives in the central
  registry and both of its sides exist.

One sequential pass analyzes each file in memory
(:func:`repro.analysis.runner.analyze_file`), then the global passes run
over the per-file facts; nothing is written to disk.

Library use::

    from repro.analysis import lint_paths
    result = lint_paths([Path("src/repro")], baseline_path=Path("lint-baseline.json"))
    assert result.ok, result.summary()
"""

from repro.analysis.baseline import load_baseline, save_baseline
from repro.analysis.determinism import check_determinism
from repro.analysis.findings import Finding, RULES, Rule, rule_catalog
from repro.analysis.lifecycle import VALID_VANTAGE_POINTS, check_lifecycle
from repro.analysis.runner import (
    FileFacts,
    LintResult,
    analyze_file,
    lint_paths,
    render_text,
    rule_table,
)
from repro.analysis.sarif import to_sarif, write_sarif
from repro.analysis.schema import check_schema
from repro.analysis.suppressions import (
    Suppression,
    parse_suppression_comments,
    parse_suppressions,
)
from repro.analysis.wire_schema import check_wire_schema, extract_wire_facts

__all__ = [
    "FileFacts",
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "Suppression",
    "VALID_VANTAGE_POINTS",
    "analyze_file",
    "check_determinism",
    "check_lifecycle",
    "check_schema",
    "check_wire_schema",
    "extract_wire_facts",
    "lint_paths",
    "load_baseline",
    "parse_suppression_comments",
    "parse_suppressions",
    "render_text",
    "rule_catalog",
    "rule_table",
    "save_baseline",
    "to_sarif",
    "write_sarif",
]
