"""Table 1: FCBF reduces the feature space to a small, utilisation- and
hardware-dominated set.

Paper: 354 features -> 22, with interface utilisations, mobile free
memory, mobile CPU and RSSI carrying the highest weights.
"""

from repro.experiments.selection_table import run_selection


def test_table1_feature_selection(controlled, report):
    result = run_selection(controlled)
    report("table1_feature_selection", result.to_text())

    # Shape: a drastic reduction from the full feature space ...
    assert result.n_before > 250
    assert 8 <= result.n_after <= 60
    # ... that retains the paper's headline feature families.
    counts = result.category_counts()
    assert counts["utilization"] + counts["hardware"] + counts["rssi"] >= 1
    # Every vantage point contributes something to the combined model.
    by_vp = result.by_vantage_point()
    assert sum(bool(v) for v in by_vp.values()) >= 2
