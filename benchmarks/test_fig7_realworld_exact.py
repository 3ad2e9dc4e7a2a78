"""Figure 7 / Section 6.1: exact root cause in the real world.

Paper accuracies: combined 82.9%, mobile 81.1%, router 80.5%, server
79.3%; device-load and wireless-medium faults transfer best (they are
anchored on hardware metrics).
"""

from repro.experiments.realworld import run_realworld_exact


def test_fig7_realworld_exact(controlled, realworld, report):
    result = run_realworld_exact(controlled, realworld)
    report("fig7_realworld_exact", result.to_text())

    acc = result.accuracies
    for name in ("mobile", "router", "server", "combined"):
        assert acc[name] > 0.55, f"{name}: {acc[name]:.2f}"
    # The mobile VP remains the strongest single vantage point.
    assert acc["mobile"] >= max(acc["router"], acc["server"]) - 0.05
