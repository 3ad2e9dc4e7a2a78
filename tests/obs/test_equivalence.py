"""Telemetry must be invisible in the data: traced == untraced, bit for bit.

The registry promises that enabling tracing changes what is *measured*,
never what is *computed* — no RNG draws, no simulation-clock reads, no
reordering.  These tests run the same seeded work traced and untraced
(serial and with worker fan-out) and require identical outputs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.diagnosis import RootCauseAnalyzer
from repro.obs.telemetry import get_telemetry, tracing
from repro.pipeline import DiagnoseStage, Pipeline
from repro.testbed.campaign import CampaignConfig, run_campaign


def tiny_config():
    return CampaignConfig(n_instances=6, seed=31,
                          video_duration_range=(8.0, 10.0))


def record_tuple(record):
    return (record.features, record.app_metrics, record.mos, record.severity,
            record.fault_name, record.fault_severity, record.fault_location,
            record.fault_intensity, record.meta)


@contextmanager
def traced():
    """tracing() that also drops the collected data afterwards."""
    with tracing() as tel:
        yield tel
    get_telemetry().reset()


@pytest.fixture(scope="module")
def untraced_records():
    assert not get_telemetry().enabled
    return run_campaign(tiny_config())


class TestCampaignEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_traced_records_bit_identical(self, untraced_records, workers):
        with traced() as tel:
            records = run_campaign(tiny_config(), workers=workers)
            # the trace actually observed the run (one span per instance)
            instance_spans = [s for s in tel.spans
                              if s.name == "campaign.instance"]
            assert len(instance_spans) == len(untraced_records)
        assert ([record_tuple(r) for r in records]
                == [record_tuple(r) for r in untraced_records])

    def test_parallel_traced_stamps_workers(self, untraced_records):
        with traced() as tel:
            records = run_campaign(tiny_config(), workers=2)
            workers = {s.attrs.get("worker", "main") for s in tel.spans
                       if s.name == "campaign.instance"}
        assert len(workers) >= 1  # at least one worker attributed
        assert ([record_tuple(r) for r in records]
                == [record_tuple(r) for r in untraced_records])


class TestDiagnosisEquivalence:
    def _streamed_reports(self, analyzer, records):
        flow = Pipeline(records, DiagnoseStage(analyzer, chunk=5))
        return [item.report.to_dict() for item in flow]

    def test_streamed_diagnoses_identical(self, mini_dataset,
                                          mini_campaign_records):
        analyzer = RootCauseAnalyzer(vps=("mobile", "router")).fit(mini_dataset)
        baseline = self._streamed_reports(analyzer, mini_campaign_records)
        with traced():
            traced_reports = self._streamed_reports(
                analyzer, mini_campaign_records
            )
        assert traced_reports == baseline

    def test_trained_tree_predictions_identical(self, mini_dataset,
                                                mini_campaign_records):
        untraced_analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(mini_dataset)
        baseline = [r.to_dict() for r in
                    untraced_analyzer.diagnose_batch(mini_campaign_records)]
        with traced():
            traced_analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(
                mini_dataset
            )
            reports = [r.to_dict() for r in
                       traced_analyzer.diagnose_batch(mini_campaign_records)]
        assert reports == baseline

    def test_cross_validation_matrix_identical(self, mini_dataset):
        from repro.ml.cross_validation import cross_validate
        from repro.ml.naive_bayes import GaussianNB

        X = mini_dataset.to_matrix()
        y = np.array(mini_dataset.labels("severity"))
        baseline = cross_validate(lambda: GaussianNB(), X, y, k=4, seed=3)
        with traced() as tel:
            result = cross_validate(lambda: GaussianNB(), X, y, k=4, seed=3)
            assert any(s.name == "ml.cv.fold" for s in tel.spans)
        assert result.labels == baseline.labels
        assert np.array_equal(result.matrix, baseline.matrix)
