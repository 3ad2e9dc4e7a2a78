"""Streaming-vs-batch equivalence: the pipeline must be invisible in the data.

The whole contract of the streaming refactor is that chunking, worker
fan-out, spooling, and checkpoint/resume change peak memory and wall
clock, never a single bit of any record, dataset, or diagnosis.  These
tests pin that down on a seeded mini-campaign.
"""

import numpy as np
import pytest

from repro.core.dataset import Dataset, Instance
from repro.core.diagnosis import RootCauseAnalyzer
from repro.pipeline import (
    CampaignSource,
    DatasetSink,
    DiagnoseStage,
    JsonlSink,
    JsonlSource,
    Pipeline,
    config_fingerprint,
    load_checkpoint,
    resume_position,
)
from repro.testbed.campaign import CampaignConfig, run_campaign


def tiny_config():
    return CampaignConfig(n_instances=4, seed=77,
                          video_duration_range=(10.0, 14.0))


def record_tuple(record):
    return (record.features, record.app_metrics, record.mos, record.severity,
            record.fault_name, record.fault_severity, record.fault_location,
            record.fault_intensity, record.meta)


@pytest.fixture(scope="module")
def batch_records():
    """The batch-path ground truth for the tiny campaign."""
    return run_campaign(tiny_config())


def assert_datasets_identical(a: Dataset, b: Dataset):
    assert a.feature_names == b.feature_names
    assert np.array_equal(a.to_matrix()[0], b.to_matrix()[0])
    assert [i.labels for i in a.instances] == [i.labels for i in b.instances]
    assert [i.meta for i in a.instances] == [i.meta for i in b.instances]
    assert [i.mos for i in a.instances] == [i.mos for i in b.instances]


class TestRecordEquivalence:
    def test_serial_stream_equals_batch(self, batch_records):
        streamed = list(CampaignSource(tiny_config()))
        assert ([record_tuple(r) for r in streamed]
                == [record_tuple(r) for r in batch_records])

    def test_parallel_stream_equals_batch(self, batch_records):
        streamed = list(CampaignSource(tiny_config(), workers=4))
        assert ([record_tuple(r) for r in streamed]
                == [record_tuple(r) for r in batch_records])

    def test_spool_round_trip_is_bit_identical(self, batch_records, tmp_path):
        spool = tmp_path / "campaign.jsonl"
        Pipeline(batch_records, JsonlSink(spool)).run()
        replayed = list(JsonlSource(spool))
        assert ([record_tuple(r) for r in replayed]
                == [record_tuple(r) for r in batch_records])


class TestDatasetEquivalence:
    def test_dataset_sink_equals_from_records(self, mini_campaign_records):
        streamed = Pipeline(mini_campaign_records, DatasetSink()).run()
        assert_datasets_identical(
            streamed, Dataset.from_records(mini_campaign_records)
        )

    def test_instance_stage_feeds_dataset_sink(self, mini_campaign_records):
        # DatasetSink takes already-built instances as well as records
        instances = map(Instance.from_record, mini_campaign_records)
        streamed = Pipeline(instances, DatasetSink()).run()
        assert_datasets_identical(
            streamed, Dataset.from_records(mini_campaign_records)
        )


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunked_stream_equals_batch(self, mini_dataset,
                                         mini_campaign_records, chunk):
        analyzer = RootCauseAnalyzer(vps=("mobile", "router")).fit(mini_dataset)
        batch = analyzer.diagnose_batch(mini_campaign_records)
        streamed = [item.report for item in Pipeline(
            mini_campaign_records, DiagnoseStage(analyzer, chunk=chunk)
        )]
        assert [r.to_dict() for r in streamed] == [r.to_dict() for r in batch]

    def test_diagnose_stream_method_equals_batch(self, mini_dataset,
                                                 mini_campaign_records):
        analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(mini_dataset)
        batch = analyzer.diagnose_batch(mini_campaign_records)
        streamed = list(analyzer.diagnose_stream(iter(mini_campaign_records),
                                                 chunk=7))
        assert [r.to_dict() for r in streamed] == [r.to_dict() for r in batch]


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_bit_identical(self, batch_records,
                                                        tmp_path):
        config = tiny_config()
        key = config_fingerprint(config)
        spool = tmp_path / "campaign.jsonl"

        # Simulate a crash: stop the flow after 2 of 4 instances.
        first = iter(Pipeline(
            CampaignSource(config),
            JsonlSink(spool, config_key=key),
        ))
        next(first)
        next(first)
        first.close()
        assert load_checkpoint(spool) is not None  # marker survives the crash

        start = resume_position(spool, key)
        assert start == 2
        Pipeline(
            CampaignSource(config, start=start),
            JsonlSink(spool, config_key=key, start=start),
        ).run()

        replayed = list(JsonlSource(spool))
        assert ([record_tuple(r) for r in replayed]
                == [record_tuple(r) for r in batch_records])
        # A cleanly finished spool needs no resume marker.
        assert load_checkpoint(spool) is None

    def test_completed_spool_resumes_to_end(self, batch_records, tmp_path):
        config = tiny_config()
        key = config_fingerprint(config)
        spool = tmp_path / "campaign.jsonl"
        sink = JsonlSink(spool, config_key=key, keep_checkpoint=True)
        Pipeline(batch_records, sink).run()
        assert resume_position(spool, key) == len(batch_records)
