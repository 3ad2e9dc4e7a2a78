"""Figure 3 / Section 5.1: detecting the existence of a problem.

Paper accuracies: mobile 88.1%, router 86.4%, server 85.6%, combined
88.8% -- i.e. every vantage point alone detects problems with high
accuracy; good sessions are recognised almost perfectly; mild-vs-severe is
where single VPs struggle.
"""

from repro.experiments.detection import run_detection


def test_fig3_problem_detection(controlled, report):
    result = run_detection(controlled)
    report("fig3_problem_detection", result.to_text())

    acc = result.accuracies
    # Shape: every VP detects problems far above the majority baseline.
    for name in ("mobile", "router", "server", "combined"):
        assert acc[name] > 0.7, f"{name} accuracy collapsed: {acc[name]:.2f}"
    # Good sessions are identified with very high precision/recall.
    bars = result.bars()
    for vp, stats in bars["good"].items():
        assert stats["recall"] > 0.8, (vp, stats)
    # Mild problems are the hardest class for every vantage point.
    for vp in ("mobile", "router", "server"):
        assert bars["mild"][vp]["recall"] <= bars["good"][vp]["recall"]
