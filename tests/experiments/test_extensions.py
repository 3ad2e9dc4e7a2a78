"""Tests for the extension experiments (continuous training, multi-fault,
delivery transfer)."""

import pytest

from repro.experiments.extensions import (
    run_continuous_training,
    run_delivery_transfer,
    run_multi_fault,
)


def test_continuous_training_driver(mini_dataset):
    result = run_continuous_training(
        mini_dataset, mini_dataset, fractions=(0.0, 0.5)
    )
    assert result.fractions == [0.0, 0.5]
    assert all(0.0 <= a <= 1.0 for a in result.accuracies)
    assert "Continuous training" in result.to_text()


@pytest.mark.slow
def test_multi_fault_driver(mini_dataset):
    result = run_multi_fault(mini_dataset, n_sessions=3, seed=5)
    assert result.n_sessions == 3
    assert 0.0 <= result.component_recall <= 1.0
    assert 0.0 <= result.detection_rate <= 1.0
    assert len(result.pairs) == 3
    assert "co-occurrence" in result.to_text()


def test_delivery_transfer_driver(mini_dataset):
    result = run_delivery_transfer(mini_dataset, mini_dataset)
    # same dataset on both sides: cross == train-on-self, high accuracy
    assert result.accuracy_cross > 0.8
    assert "agnosticism" in result.to_text()


def test_session_rows_match_the_training_transform(mini_campaign_records, mini_dataset):
    """The §7 test rows carry the flow-duration norms training saw."""
    from repro.core.construction import FeatureConstructor
    from repro.core.dataset import Instance
    from repro.experiments.common import session_rows

    constructor = FeatureConstructor().fit(mini_dataset)
    record = mini_campaign_records[0]
    expected = constructor.transform_instance(Instance.from_record(record)).features
    names = sorted(expected)
    flow = [n for n in names if n.endswith("_tcp_flow_duration_norm")]
    assert flow and any(expected[n] > 0 for n in flow)
    short = names[::3] + flow
    got, got_short = session_rows(constructor, record, names, short)
    assert got == [expected[n] for n in names]
    assert got_short == [expected[n] for n in short]
