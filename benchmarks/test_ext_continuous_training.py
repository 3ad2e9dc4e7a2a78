"""Extension (Section 7): continuous training with labelled field data.

"As new data is being added to the training set, the system's accuracy
will continue to improve."  Folding real-world labelled sessions into the
lab training set should not hurt -- and typically helps -- accuracy on
held-out real-world sessions.
"""

from repro.experiments.extensions import run_continuous_training


def test_ext_continuous_training(controlled, realworld, report):
    result = run_continuous_training(controlled, realworld)
    report("ext_continuous_training", result.to_text())

    assert len(result.accuracies) == 4
    # Adding field data never collapses accuracy ...
    assert result.accuracies[-1] > result.accuracies[0] - 0.05
    # ... and the lab-only starting point is already useful.
    assert result.accuracies[0] > 0.6
