"""Telemetry-usage pass (rule O501).

Telemetry spans nest through a stack: a span that is opened but never
closed (or closed out of order) corrupts every enclosing span's timing.
The API therefore only hands spans out as context managers (a span has
no ``start()`` / ``finish()``), and this pass enforces the discipline
statically, project-wide: every ``<expr>.span(...)`` call must be the
context expression of a ``with`` item — assigning it
(``s = tel.span(...)``), passing it around, or chaining into it are all
findings.

Aggregate spans with non-lexical lifetimes (pipeline stage totals) go
through ``Telemetry.record_span``, which files an already-measured span
and needs no closing — that is the sanctioned escape hatch.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding

#: the span-acquiring method name this pass polices
SPAN_METHOD = "span"


def _with_context_calls(tree: ast.AST) -> Set[int]:
    """ids of Call nodes used directly as a ``with`` context expression."""
    contexts: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    contexts.add(id(item.context_expr))
    return contexts


def check_obs_usage(path: str, source: str) -> List[Finding]:
    """All O501 findings for one module."""
    tree = ast.parse(source, filename=path)
    contexts = _with_context_calls(tree)
    return [
        Finding(
            path=path,
            line=node.lineno,
            col=node.col_offset + 1,
            rule="O501",
            message=(
                "span() must be the context expression of a `with` "
                "statement (a span opened outside `with` can never be "
                "closed safely); use Telemetry.record_span for "
                "non-lexical lifetimes"
            ),
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == SPAN_METHOD
        and id(node) not in contexts
    ]
