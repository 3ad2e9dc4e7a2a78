"""Figure 6 / Section 6.1: lab-trained model, real network, induced faults.

Paper accuracies: mobile 88%, router 84%, server 81%, combined 88.1% --
the model trained entirely in the controlled environment keeps its
problem-detection power on a real wireless network.
"""

from repro.experiments.realworld import run_realworld_detection


def test_fig6_realworld_detection(controlled, realworld, report):
    result = run_realworld_detection(controlled, realworld)
    report("fig6_realworld_detection", result.to_text())

    acc = result.accuracies
    # Transfer keeps detection well above the majority baseline for the
    # mobile VP and the combination (the paper's robustness claim).
    assert acc["mobile"] > 0.7, acc
    assert acc["combined"] > 0.7, acc
    assert acc["router"] > 0.6 and acc["server"] > 0.6, acc
    # Good sessions remain easy in the wild too.
    bars = result.bars()
    assert bars["good"]["mobile"]["recall"] > 0.75
