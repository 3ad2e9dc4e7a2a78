"""Shared benchmark fixtures.

All benchmarks draw from three disk-cached datasets (controlled,
real-world-induced, wild) so that the expensive simulation runs once per
configuration; each figure/table then re-analyses the same data, exactly
as the paper does.  Rendered result tables are written to
``benchmarks/reports/`` and printed, so a plain ``pytest benchmarks/``
run leaves the full reproduction record behind.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import (
    controlled_dataset,
    realworld_dataset,
    wild_dataset,
)

REPORT_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def controlled():
    return controlled_dataset(verbose=True)


@pytest.fixture(scope="session")
def realworld():
    return realworld_dataset(verbose=True)


@pytest.fixture(scope="session")
def wild():
    return wild_dataset(verbose=True)


@pytest.fixture(scope="session")
def report():
    REPORT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n", flush=True)

    return write

