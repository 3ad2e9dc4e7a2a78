"""Label derivation helpers (Section 4.4).

The severity label always comes from the MOS (good > 3, mild in [2, 3],
severe < 2); the location and exact labels combine the injected fault with
that severity.  The testbed computes these on each
:class:`~repro.record.SessionRecord`; this module provides the
vocabulary and array helpers used by the evaluation code.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.dataset import Dataset
from repro.record import FAULT_NAMES

#: the three classification tasks, plus the binary task of Section 6.2
LABEL_KINDS = ("severity", "location", "exact", "existence")

SEVERITIES = ("good", "mild", "severe")
LOCATIONS = ("mobile", "lan", "wan")


def exact_label_vocabulary() -> List[str]:
    """All labels of the exact-problem task (Figure 4)."""
    labels = ["good"]
    for fault in FAULT_NAMES:
        for severity in ("mild", "severe"):
            labels.append(f"{fault}_{severity}")
    return labels


def location_label_vocabulary() -> List[str]:
    labels = ["good"]
    for location in LOCATIONS:
        for severity in ("mild", "severe"):
            labels.append(f"{location}_{severity}")
    return labels


def label_array(dataset: Dataset, kind: str) -> np.ndarray:
    if kind not in LABEL_KINDS:
        raise ValueError(f"unknown label kind {kind!r}; expected {LABEL_KINDS}")
    return dataset.labels(kind)


def collapse_to_existence(labels: np.ndarray) -> np.ndarray:
    """Any non-good label becomes 'problematic' (Section 6.2 task)."""
    return np.where(labels == "good", "good", "problematic")
