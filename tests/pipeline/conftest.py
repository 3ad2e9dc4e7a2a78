"""Shared fixtures for the sharded-campaign test modules.

The serial reference campaign is simulated exactly once per session;
shard, merge and crash-injection tests all compare their spools against
these bytes.  The config is tiny (6 instances, short videos); with 3
shards each shard owns a slice of two.
"""

import pytest

from repro.pipeline.records import record_to_json
from repro.testbed.campaign import CampaignConfig, run_campaign

SHARD_CONFIG = CampaignConfig(
    n_instances=6, seed=77, video_duration_range=(8.0, 12.0)
)


@pytest.fixture(scope="session")
def shard_config():
    return SHARD_CONFIG


@pytest.fixture(scope="session")
def serial_reference(shard_config):
    """The bytes a never-sharded serial campaign spools for SHARD_CONFIG."""
    records = run_campaign(shard_config)
    return b"".join(
        (record_to_json(record) + "\n").encode("utf-8") for record in records
    )
