"""Table 5: root-cause predictions over the wild dataset.

The lab exact-cause model labels every wild session; the paper reports
most problems in the user's local network, few wireless-medium cases, a
noticeable mobile-load share, and ~85% accuracy on the good instances.
"""

from repro.experiments.wild import run_wild_rca


def test_table5_wild_rca(controlled, wild, report):
    result = run_wild_rca(controlled, wild)
    report("table5_wild_rca", result.to_text())

    assert result.n_sessions == len(wild)
    # Good instances are recognised with high accuracy (paper: 85%).
    assert result.good_accuracy > 0.7, result.good_accuracy
    # The majority of sessions are predicted healthy.
    good_count = sum(result.counts.get("good", {}).values())
    assert good_count > result.n_sessions * 0.5
    # Some non-trivial spread of causes is predicted.
    causes = [c for c in result.counts if c != "good"]
    assert len(causes) >= 2, result.counts
