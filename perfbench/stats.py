"""Pure arithmetic shared by the harness: percentiles, spreads, layer budgets."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: a reported percentile must have at least this many samples beyond it
MIN_BEYOND = 10


def supported_percentile(n: int, preferred: float) -> Optional[float]:
    """The highest percentile <= ``preferred`` with MIN_BEYOND samples past it.

    With nearest-rank percentiles the value at percentile ``p`` is the
    ``ceil(p * n / 100)``-th smallest sample, so ``n - rank`` samples lie
    beyond it.  Returns ``None`` when ``n`` cannot support any percentile.
    """
    if n <= MIN_BEYOND:
        return None
    return min(float(preferred), 100.0 * (n - MIN_BEYOND) / n)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def tail(samples: Sequence[float], preferred: float) -> Tuple[float, float, int]:
    """``(percentile, value, samples_beyond)`` for the tail of ``samples``."""
    ordered = sorted(samples)
    pct = supported_percentile(len(ordered), preferred)
    if pct is None:
        raise ValueError(
            f"{len(ordered)} samples cannot support a percentile with "
            f"{MIN_BEYOND} samples beyond it"
        )
    rank = _rank(len(ordered), pct)
    return pct, ordered[rank - 1], len(ordered) - rank


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


#: percentile of the fast figures: the fastest tenth of the units of a run
FAST_PCT = 10.0


def fast(samples: Sequence[float]) -> float:
    """The ``FAST_PCT`` nearest-rank percentile of ``samples``.

    On a shared host the speed of the machine switches, from one second
    to the next, between a fast mode and one up to ~1.7x slower, and the
    share of a run spent in each varies from run to run.  The median
    then jumps between the modes; the fastest tenth stays in the fast
    mode, which every run visits.
    """
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), FAST_PCT) - 1]


def unit_rate(durations: Sequence[float], rows_per_unit: int) -> float:
    """Rows per second of the fast unit of work (see :func:`fast`).

    ``durations`` are the seconds of units of ``rows_per_unit`` rows each.
    """
    return rows_per_unit / fast(durations)


def split_repeats(samples: Sequence[float], repeats: int) -> List[List[float]]:
    """Cut ``samples`` into ``repeats`` consecutive groups of near-equal size."""
    repeats = max(1, min(repeats, len(samples)))
    size, extra = divmod(len(samples), repeats)
    groups, start = [], 0
    for i in range(repeats):
        end = start + size + (1 if i < extra else 0)
        groups.append(list(samples[start:end]))
        start = end
    return groups


def layer_block(
    end_to_end: float,
    layers: Mapping[str, float],
    repeats: int = 1,
    repeat_spread: float = 0.0,
    untraced: Optional[float] = None,
) -> Dict[str, object]:
    """The ``layers`` budget: each layer's seconds and share, plus the rest.

    ``end_to_end`` and every layer are seconds per unit of work (record,
    row or request) in the traced run; ``unattributed`` is what the
    layers do not cover.  ``untraced`` is the same end-to-end figure from
    the untraced run, and ``tracing_overhead`` their relative difference.
    """
    if end_to_end <= 0:
        raise ValueError("end-to-end time must be positive")
    covered = sum(layers.values())
    unattributed = end_to_end - covered
    block: Dict[str, object] = {
        "end_to_end_s": end_to_end,
        "layers": {
            name: {"s": seconds, "share": seconds / end_to_end}
            for name, seconds in layers.items()
        },
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / end_to_end,
        "repeats": repeats,
        "spread": repeat_spread,
    }
    if untraced:
        block["untraced_s"] = untraced
        block["tracing_overhead"] = end_to_end / untraced - 1.0
    return block
