"""Section 5.2 (text): VP pairs bring no significant gain for location.

"We also evaluated the benefits of using VP pairs for location detection.
However, we did not observe any significant improvement."
"""

from repro.experiments.vp_pairs import run_vp_pairs


def test_sec52_vp_pairs(controlled, report):
    result = run_vp_pairs(controlled)
    report("sec52_vp_pairs", result.to_text())

    acc = result.accuracies
    assert len(acc) == 7  # 3 singles + 3 pairs + combined
    # Pairs never dramatically beat their best member (the paper's finding:
    # no significant improvement).  Allow a modest few points of noise.
    assert result.max_pair_gain < 0.10, result.to_text()
    # Sanity floor for all combos.
    assert min(acc.values()) > 0.55, acc
