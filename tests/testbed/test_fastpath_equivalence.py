"""Fast-path equivalence: the simnet rework must be invisible in the data.

The calendar scheduler, the batched RNG, inline zero-latency delivery,
event pooling and the incremental probes are throughput work only --
campaign records must stay *byte-identical* across scheduler
implementations, RNG modes, posted or inline delivery (the reference
engines come from ``tests/oracles.py``) and worker counts, and
the dataset cache key must not move (CACHE_VERSION stays 5: cached
datasets from before the rework remain valid).
"""

import contextlib
import hashlib
import pickle
import random

import pytest

from repro.experiments.common import CACHE_VERSION, _config_key
from repro.faults.congestion import LanCongestion, WanCongestion
from repro.faults.load import MobileLoad
from repro.faults.shaping import LanShaping, WanShaping
from repro.faults.unknown import DnsMisconfiguration, MiddleboxInterference
from repro.faults.wireless_faults import LowRssi, WifiInterference
from repro.pipeline.records import record_to_json
from repro.testbed.campaign import CampaignConfig, run_campaign
from repro.testbed.testbed import Testbed, TestbedConfig
from repro.video.catalog import VideoCatalog
from tests.oracles import posted_delivery, reference_scheduler, stdlib_rng


def _tiny_config():
    return CampaignConfig(n_instances=3, seed=77,
                          video_duration_range=(10.0, 14.0))


def _payload(records):
    # Pickle per record, not the whole list: pickling a list memoizes
    # objects shared *across* records (string interning differs between
    # the serial path and worker subprocesses) without changing any value.
    return [
        pickle.dumps(
            (r.features, r.app_metrics, r.mos, r.severity, r.fault_name,
             r.fault_severity, r.fault_location, r.fault_intensity, r.meta)
        )
        for r in records
    ]


def test_records_identical_across_schedulers():
    calendar = _payload(run_campaign(_tiny_config(), workers=1))
    with reference_scheduler():
        reference = _payload(run_campaign(_tiny_config(), workers=1))
    assert calendar == reference


def test_records_identical_across_rng_modes():
    batched = _payload(run_campaign(_tiny_config(), workers=1))
    with stdlib_rng():
        stdlib = _payload(run_campaign(_tiny_config(), workers=1))
    assert batched == stdlib


def test_records_identical_serial_vs_parallel():
    serial = _payload(run_campaign(_tiny_config(), workers=1))
    parallel = _payload(run_campaign(_tiny_config(), workers=4))
    assert serial == parallel


def test_cache_version_not_bumped():
    """The rework changes no record bytes, so caches stay valid."""
    assert CACHE_VERSION == 5


def test_cache_key_stable():
    """The campaign config hash (the .repro_cache file name) is pinned."""
    assert _config_key(_tiny_config()) == _config_key(_tiny_config())
    # Pinned against the pre-rework value: a moved key would silently
    # orphan every cached dataset.
    assert _config_key(CampaignConfig()) == "f3cb80daeabac0b5"


# ------------------------------------------------------- golden records

#: every concrete fault family, plus the healthy (no-fault) case
FAULT_FAMILIES = [
    None,
    LanCongestion,
    WanCongestion,
    MobileLoad,
    WanShaping,
    LanShaping,
    DnsMisconfiguration,
    MiddleboxInterference,
    LowRssi,
    WifiInterference,
]

#: the ABR sessions: delivery-agnostic probes and labels
ABR_FAMILIES = [None, WanCongestion, LowRssi, MobileLoad]

_CATALOG = VideoCatalog(size=20, duration_range=(8.0, 11.0), seed=5)

#: sha256 of ``record_to_json`` per session, in family order
GOLDEN = {
    "video": [
        "5b75575ffe0504249d8a43f411bd18c8d5fe27bdb0175b2e57f1fa457453e93e",
        "38ab8e43625d2b00890f21266d3b787c2473b0752b70940c3f17d408c35c49fa",
        "1b705ff71b7fd153dc948c5f17d108a463905108e808f860ac108b85e784b61e",
        "c9721b9e565da4d2eeb30faeedf02b02c91cf05ffbb13e10f508574569c90e53",
        "6446439cfb21a33e93fabfe704eaafeb66708e469d0aeb776e713c1905a737de",
        "15298715a12ebb48547cd26d05999d8deb48a723d76fc52b1e5c7f4c73a82288",
        "3879882a2d221287872072d5a7da2cc2c8f871fedc1bcc5422f1a3ef2cf74e71",
        "ec484b3ff9abe44cbaf75e3e5dbab7cfe4838ae5ef278e31ea4fcd26b7cd4842",
        "b364d8280ec006fbb850382891f774ca0a6832be6c8ebd9600c4a99667df1c06",
        "d7e55dee310e8cb9e353d55abad55bbca9fb73b03b1266b6286f808537f0f131",
    ],
    "abr": [
        "34b2c526774d7906d61b221ed2b9a6731e04f69b7d585ce8a03eeff7782f1a42",
        "dd990026fe4fb639ed7a9268ff8319b9cae2f3aaf67e28b53589b411231c6da1",
        "89095130e024fa02a7594e08f856656bf7c7ddf168ac599f796906a0d933a173",
        "bf08642644eb7dda4e763ab8292c0df5331e64f58082b9bff9e0674fbb41eb84",
    ],
}


def _digests(kind, families):
    """Run one solo session per family and hash its spool line."""
    digests = []
    for i, fault_cls in enumerate(families):
        profile = _CATALOG.pick(random.Random(3000 + i))
        fault = None
        if fault_cls is not None:
            severity = "mild" if i % 2 else "severe"
            fault = fault_cls(severity, random.Random(2000 + i))
        testbed = Testbed(TestbedConfig(seed=1000 + i))
        if kind == "video":
            record = testbed.run_video_session(profile, fault)
        else:
            record = testbed.run_abr_session(profile, fault)
        testbed.shutdown()
        digests.append(hashlib.sha256(record_to_json(record).encode()).hexdigest())
    return digests


SCHEDULER_ORACLES = {"calendar": contextlib.nullcontext,
                     "reference": reference_scheduler}
RNG_ORACLES = {"batched": contextlib.nullcontext, "stdlib": stdlib_rng}
DELIVERY_ORACLES = {"inline": contextlib.nullcontext, "posted": posted_delivery}


@pytest.mark.parametrize(
    "scheduler, rng_mode, delivery",
    [
        pytest.param("calendar", "batched", "inline", id="calendar-batched"),
        pytest.param("reference", "batched", "inline", id="reference-batched"),
        pytest.param("calendar", "stdlib", "inline", id="calendar-stdlib"),
        pytest.param("calendar", "batched", "posted", id="calendar-batched-posted"),
    ],
)
def test_golden_records_every_fault_family(scheduler, rng_mode, delivery):
    """Each engine configuration reproduces the pinned record bytes."""
    with SCHEDULER_ORACLES[scheduler](), RNG_ORACLES[rng_mode](), \
            DELIVERY_ORACLES[delivery]():
        assert _digests("video", FAULT_FAMILIES) == GOLDEN["video"]
        assert _digests("abr", ABR_FAMILIES) == GOLDEN["abr"]
