"""Parallel campaign engine: worker fan-out must be invisible in the data.

The serial/parallel equivalence guarantee is the contract the cached
datasets rely on (the cache key excludes the worker count), so these tests
compare full records -- features, labels and metadata -- not just shapes.
"""

import os
import signal

import pytest

from repro.testbed import campaign as campaign_mod
from repro.testbed.campaign import (
    CampaignConfig,
    campaign_seeds,
    iter_campaign,
    iter_instances,
    resolve_workers,
    run_campaign,
)
from repro.testbed.realworld import WildConfig, run_wild_campaign


def _tiny_config(n=3, seed=77):
    return CampaignConfig(n_instances=n, seed=seed,
                          video_duration_range=(10.0, 14.0))


def _record_tuple(record):
    return (record.features, record.exact_label, record.location_label,
            record.severity, record.mos, record.meta)


def test_campaign_seeds_match_serial_draws():
    config = _tiny_config(n=5)
    import random

    rng = random.Random(config.seed)
    expected = [rng.randrange(2**31) for _ in range(5)]
    assert campaign_seeds(config.seed, 5) == expected


def test_parallel_equals_serial():
    config = _tiny_config()
    serial = run_campaign(config, workers=1)
    parallel = run_campaign(config, workers=3)
    assert [_record_tuple(r) for r in serial] == [_record_tuple(r) for r in parallel]


def test_progress_streams_in_order_under_workers():
    config = _tiny_config()
    seen = []
    run_campaign(config, workers=2, progress=lambda i, r: seen.append(i))
    assert seen == [0, 1, 2]


def test_iter_campaign_parallel_is_ordered():
    config = _tiny_config()
    indices = [r.meta["instance_index"]
               for r in iter_campaign(config, workers=2)]
    assert indices == [0, 1, 2]


def test_serial_fallback_without_fork(monkeypatch):
    """Platforms without fork must silently fall back to the serial path."""
    monkeypatch.setattr(campaign_mod, "_fork_context", lambda: None)
    config = _tiny_config(n=2)
    records = run_campaign(config, workers=4)
    assert [r.meta["instance_index"] for r in records] == [0, 1]


def _pid(config, index, instance_seed):
    return os.getpid()


def _nested_campaign(config, index, instance_seed):
    return os.getpid(), list(iter_instances(_pid, None, [1, 2], workers=2))


def test_no_nested_pool_inside_a_worker():
    """A campaign started inside a pool worker runs serially in it."""
    results = list(iter_instances(_nested_campaign, None, [1, 2], workers=2))
    assert all(inner == [pid, pid] for pid, inner in results)
    assert os.getpid() not in {pid for pid, _ in results}


def _sigint_handler(config, index, instance_seed):
    return signal.getsignal(signal.SIGINT)


def test_pool_workers_ignore_sigint():
    """Ctrl-C reaches the whole process group; only the parent handles it
    (it stops the run and kills the workers), so workers print nothing."""
    results = list(iter_instances(_sigint_handler, None, [1, 2], workers=2))
    assert results == [signal.SIG_IGN, signal.SIG_IGN]
    assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN


def test_resolve_workers_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2  # explicit argument wins
    assert resolve_workers(0) == 1  # clamped


def test_resolve_workers_tolerates_garbage_env(monkeypatch):
    """A typo'd REPRO_WORKERS must degrade to serial, not crash."""
    monkeypatch.setenv("REPRO_WORKERS", "abc")
    with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
        assert resolve_workers(None) == 1
    assert resolve_workers(2) == 2  # explicit argument still wins quietly


@pytest.mark.slow
def test_wild_campaign_parallel_equals_serial():
    config = WildConfig(n_instances=3, seed=81,
                        video_duration_range=(10.0, 12.0))
    serial = run_wild_campaign(config, workers=1)
    parallel = run_wild_campaign(config, workers=3)
    assert [_record_tuple(r) for r in serial] == [_record_tuple(r) for r in parallel]
