"""Seeded inputs, generated once per seed and cached inside the checkout.

Everything the program under test receives is built here from the
workload ``--seed``:

* the *campaign plan*: one ``CampaignConfig`` per scenario stratum
  (healthy, mobile, LAN and WAN faults), each seeded from the workload
  seed;
* a *corpus* of simulated sessions, the same for every seed, from which
  the *training set* and the *replay spool* are drawn by seeded
  perturbation of every numeric feature;
* the *analyzer export* fit on that training set
  (``RootCauseAnalyzer.save``).

The corpus is simulated once per checkout and its spool digest is
pinned in ``CORPUS_SHA256``: a change that alters simulated records
fails this check the first time the benchmark runs on it.  Input
generation is never part of any timed figure, set-up time included.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

CACHE = Path(__file__).resolve().parent / "_cache"

#: the seed-independent corpus: short videos keep a session near 0.5 s
CORPUS_CONFIG = dict(n_instances=24, seed=2015, video_duration_range=(8.0, 10.0))
#: sha256 of the corpus spool; pins simulated records byte for byte
CORPUS_SHA256 = "516fd6febbc01683943693a18ca399d6efaeb1bd109559b96ff723b444f9f2fc"

#: rows in the replay spool (a multiple of the 64-record request size)
SPOOL_ROWS = 1024
#: perturbed copies of each corpus session in the training set
TRAIN_COPIES = 3
#: log-normal sigma of the multiplicative feature perturbation
JITTER = 0.05

#: campaign strata: one record of each per round, in this order, one per
#: fault location.  A free fault draw makes the work per record vary
#: several-fold across seeds (a severe LAN congestion session simulates
#: ~10x the events of a healthy one), so each stratum pins a mild fault
#: whose sessions cost about the same as a healthy one.
STRATA: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("none", dict(healthy_fraction=1.0)),
    ("mobile", dict(healthy_fraction=0.0, faults=("mobile_load",), mild_fraction=1.0)),
    ("lan", dict(healthy_fraction=0.0, faults=("lan_shaping",), mild_fraction=1.0)),
    ("wan", dict(healthy_fraction=0.0, faults=("wan_shaping",), mild_fraction=1.0)),
)
#: simulated video length of campaign sessions (seconds).  Short videos
#: give many records per run, so the cost of a seed's plan averages out
#: (a session still simulates 3 s of warm-up before its video).
CAMPAIGN_VIDEO_S = (2.0, 3.0)
#: SD videos only: an HD bitrate above a shaped link's cap stalls the
#: session, which then simulates several times longer
CAMPAIGN_HD_FRACTION = 0.0
#: background conditions pinned for the same reason as the strata
CAMPAIGN_TESTBED = dict(background_intensity_range=(1.0, 1.0),
                        server_base_load_range=(0.2, 0.2),
                        phone_rssi_range=(-50.0, -50.0))
#: background mix without the FTP transfers: a 0.5-4 MB transfer arriving
#: about once a minute at random made up two thirds of the mean cost of a
#: record and most of its spread.  The video itself is a TCP bulk
#: download, and web, VoIP, gaming, telnet and phone-app flows stay on.
CAMPAIGN_TRAFFIC = dict(ftp=False)


@dataclass(frozen=True)
class SeedInputs:
    """Paths of one seed's cached inputs."""

    seed: int
    directory: Path

    @property
    def model(self) -> Path:
        return self.directory / "model.json"

    @property
    def spool(self) -> Path:
        return self.directory / "spool.jsonl"

    def campaign_digest(self, rounds: int) -> Path:
        """Where the spool digest of this seed's ``rounds``-round plan is kept.

        The name carries a hash of the plan, so changing the strata or
        their settings starts a fresh record instead of failing the check.
        """
        plan = repr(campaign_configs(self.seed, rounds)).encode("utf-8")
        key = hashlib.sha256(plan).hexdigest()[:16]
        return self.directory / f"campaign-{rounds}-{key}.sha256"


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def campaign_configs(seed: int, rounds: int) -> List[object]:
    """One ``CampaignConfig`` of ``rounds`` instances per stratum."""
    from repro.testbed.campaign import CampaignConfig
    from repro.traffic.ditg import TrafficMix

    return [
        CampaignConfig(
            n_instances=rounds,
            seed=random.Random(f"{seed}:{name}").randrange(2**31),
            video_duration_range=CAMPAIGN_VIDEO_S,
            hd_fraction=CAMPAIGN_HD_FRACTION,
            testbed_overrides=dict(CAMPAIGN_TESTBED,
                                   traffic_mix=TrafficMix(**CAMPAIGN_TRAFFIC)),
            **overrides,
        )
        for name, overrides in STRATA
    ]


def corpus_lines() -> List[str]:
    """The corpus spool lines, simulating them on first use in a checkout."""
    path = CACHE / "corpus.jsonl"
    if not path.exists():
        from repro.pipeline.records import record_to_json
        from repro.testbed.campaign import CampaignConfig, iter_campaign

        CACHE.mkdir(parents=True, exist_ok=True)
        config = CampaignConfig(**CORPUS_CONFIG)
        text = "".join(
            record_to_json(record) + "\n"
            for record in iter_campaign(config, workers=1)
        )
        _write_atomic(path, text.encode("utf-8"))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != CORPUS_SHA256:
        raise RuntimeError(
            f"corpus spool sha256 {digest} != pinned {CORPUS_SHA256}: "
            "simulated records changed"
        )
    return path.read_text(encoding="utf-8").splitlines()


def _jitter(value: float, rng: random.Random) -> float:
    """Scale ``value`` by a log-normal factor; integral values stay integral."""
    scaled = value * math.exp(rng.gauss(0.0, JITTER))
    return float(round(scaled)) if value == int(value) else scaled


def perturb(record: object, rng: random.Random) -> object:
    """A new session record near ``record``: every numeric feature jittered."""
    from repro.testbed.testbed import SessionRecord

    meta = dict(record.meta)
    meta["session_s"] = _jitter(float(meta["session_s"]), rng)
    return SessionRecord(
        features={k: _jitter(v, rng) for k, v in record.features.items()},
        app_metrics=dict(record.app_metrics),
        mos=record.mos,
        severity=record.severity,
        fault_name=record.fault_name,
        fault_severity=record.fault_severity,
        fault_location=record.fault_location,
        fault_intensity=dict(record.fault_intensity),
        meta=meta,
    )


def seed_inputs(seed: int) -> SeedInputs:
    """Build (or reuse) the analyzer export and replay spool for ``seed``."""
    inputs = SeedInputs(seed, CACHE / f"seed-{seed}")
    if inputs.model.exists() and inputs.spool.exists():
        return inputs
    from repro.core.dataset import Dataset
    from repro.core.diagnosis import RootCauseAnalyzer
    from repro.pipeline.records import record_from_json, record_to_json

    corpus = [record_from_json(line) for line in corpus_lines()]
    rng = random.Random(seed)
    train = [perturb(r, rng) for r in corpus for _ in range(TRAIN_COPIES)]
    analyzer = RootCauseAnalyzer().fit(Dataset.from_records(train))
    spool = "".join(
        record_to_json(perturb(rng.choice(corpus), rng)) + "\n"
        for _ in range(SPOOL_ROWS)
    )
    inputs.directory.mkdir(parents=True, exist_ok=True)
    _write_atomic(inputs.spool, spool.encode("utf-8"))
    tmp_model = inputs.directory / f"model.tmp{os.getpid()}.json"
    analyzer.save(tmp_model)
    os.replace(tmp_model, inputs.model)
    return inputs
