"""SARIF 2.1.0 output for ``repro lint --sarif``.

SARIF (Static Analysis Results Interchange Format) is the shape code
hosts and CI dashboards ingest natively.  The emitter maps the rule
catalog to ``tool.driver.rules`` and every unsuppressed finding to
``results``.  Suppressed findings are deliberately dropped — the allow
comment is the in-tree record.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.analysis.findings import Finding, RULES
from repro.analysis.runner import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_descriptor(rule_id: str) -> Dict[str, object]:
    rule = RULES[rule_id]
    return {
        "id": rule.id,
        "name": rule.name,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": rule.severity},
    }


def _result(finding: Finding) -> Dict[str, object]:
    return {
        "ruleId": finding.rule,
        "level": finding.severity,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
    }


def to_sarif(result: LintResult) -> Dict[str, object]:
    """One SARIF log document for one lint run."""
    exported: List[Dict[str, object]] = [
        _result(finding) for finding in result.new_findings
    ]
    used_rules = sorted({str(r["ruleId"]) for r in exported})
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": [_rule_descriptor(r) for r in used_rules],
                    }
                },
                "results": exported,
                "invocations": [
                    {
                        "executionSuccessful": not result.parse_errors,
                        "exitCode": 0 if result.ok else 1,
                    }
                ],
            }
        ],
    }


def write_sarif(path: Union[str, Path], result: LintResult) -> int:
    """Write the SARIF log; returns the number of exported results."""
    document = to_sarif(result)
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    runs = document["runs"]
    return len(runs[0]["results"])  # type: ignore[index,arg-type]
