"""Extension (Section 9): co-occurring problems.

The paper lists "the co-occurrence of problems that jointly affect video
QoE" as a known limitation: the single-label model can at best name one
component.  We quantify that behaviour: sessions with two simultaneous
severe faults should still be flagged as problematic, and the predicted
cause should usually be one of the two injected components.
"""

from repro.experiments.extensions import run_multi_fault


def test_ext_multifault(controlled, report):
    result = run_multi_fault(controlled, n_sessions=15)
    report("ext_multifault", result.to_text())

    assert result.n_sessions == 15
    # Detection survives co-occurrence ...
    assert result.detection_rate > 0.7
    # ... and the named cause is usually one of the true components.
    assert result.component_recall > 0.4
