"""Shared fixtures: one lint run over the real source tree."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_lint_result():
    """Lint the project's own ``src/repro`` once per test session."""
    return lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
