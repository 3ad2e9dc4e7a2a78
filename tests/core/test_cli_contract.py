"""The CLI-wide contracts: uniform exit codes and JSON envelopes.

Every subcommand must exit 0 (ok) / 1 (domain failure) / 2 (usage
error), and every ``--json`` emission must be a versioned envelope
``{"schema": "repro-<cmd>-v1", "data": ...}``.  The exit-code tests are
parametrized over ``build_parser()`` so a new subcommand is covered the
moment it is registered.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import build_parser, main


def subcommands():
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return sorted(action.choices)
    raise AssertionError("parser has no subcommands")


@pytest.fixture()
def dataset_file(tmp_path, mini_dataset):
    path = tmp_path / "mini.pkl"
    with path.open("wb") as fh:
        pickle.dump(mini_dataset, fh)
    return str(path)


# ------------------------------------------------------------- exit codes


def test_every_subcommand_is_enumerable():
    assert set(subcommands()) == {
        "campaign", "diagnose", "evaluate", "lint", "report", "serve",
        "stream", "trace",
    }


@pytest.mark.parametrize("command", subcommands())
def test_unknown_flag_is_usage_error(command, capsys):
    assert main([command, "--no-such-flag"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", subcommands())
def test_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--experiment", "fig3", "--dataset", "/no/such/file.pkl"],
    ["diagnose", "--train", "/no/such/file.pkl"],
    ["report", "--train", "/no/such/file.pkl"],
    ["stream", "--source", "/no/such/file.jsonl", "--diagnose",
     "--train", "/no/such/file.pkl"],
], ids=["evaluate", "diagnose", "report", "stream"])
def test_missing_file_is_domain_failure(argv, capsys):
    assert main(argv) == 1
    assert "repro: error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    (["diagnose", "--model", "m.json", "--train", "t.pkl"],
     "mutually exclusive"),
    (["diagnose", "--model", "m.json"], "--dataset"),
    (["serve", "--model", "m.json", "--train", "t.pkl"], "one model source"),
    (["serve", "--models", "d/", "--model", "m.json", "--train", "t.pkl"],
     "one model source"),
    (["lint", "/no/such/path"], "no such path"),
    (["diagnose", "--batch"], "unrecognized arguments"),
    (["campaign", "--out", "x.pkl", "--sessions-per-proc", "2"],
     "unrecognized arguments"),
    (["lint", "--jobs", "2"], "unrecognized arguments"),
    (["lint", "--no-cache"], "unrecognized arguments"),
    (["lint", "--cache-dir", "d"], "unrecognized arguments"),
    (["serve", "--max-batch", "0"], "--max-batch must be >= 1"),
    (["serve", "--port", "70000"], "--port must be in 0..65535"),
    (["serve", "--max-wait-ms", "2"], "unrecognized arguments"),
], ids=["model-and-train", "model-needs-dataset", "serve-two-sources",
        "serve-three-sources", "lint-missing-path", "removed-diagnose-batch",
        "removed-campaign-flag", "removed-lint-jobs", "removed-lint-no-cache",
        "removed-lint-cache-dir", "serve-max-batch-zero", "serve-port-range",
        "removed-serve-max-wait"])
def test_flag_conflicts_are_usage_errors(argv, fragment, capsys):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_unknown_vps_is_usage_error(dataset_file, capsys):
    rc = main(["diagnose", "--train", dataset_file, "--vps", "mobile,bogus"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_trivial_success_is_zero(capsys):
    assert main(["lint", "--rules"]) == 0
    capsys.readouterr()


def test_interrupt_is_one_line_and_exit_130(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.cli.cmd_lint", interrupted)
    assert main(["lint", "--rules"]) == 130
    captured = capsys.readouterr()
    assert captured.err == "repro: interrupted\n"
    assert captured.out == ""


class _InterruptingFinder:
    """A meta-path finder that is interrupted importing ``repro.cli``."""

    def find_spec(self, name, path=None, target=None):
        if name == "repro.cli":
            raise KeyboardInterrupt
        return None


def test_interrupt_while_importing_is_one_line_and_exit_130(
    monkeypatch, capsys
):
    # Ctrl-C can land while `python -m repro` is still importing the CLI,
    # before main() runs.
    import runpy
    import sys

    monkeypatch.delitem(sys.modules, "repro.cli")
    monkeypatch.delitem(sys.modules, "repro.__main__", raising=False)
    monkeypatch.setattr(sys, "meta_path",
                        [_InterruptingFinder(), *sys.meta_path])
    with pytest.raises(SystemExit) as exc:
        try:
            runpy.run_module("repro", run_name="__main__")
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped `python -m repro`")
    assert exc.value.code == 130
    captured = capsys.readouterr()
    assert captured.err == "repro: interrupted\n"
    assert captured.out == ""


# ---------------------------------------------------------- JSON envelopes


def unwrap(out: str, command: str):
    envelope = json.loads(out)
    assert set(envelope) == {"schema", "data"}
    assert envelope["schema"] == f"repro-{command}-v1"
    return envelope["data"]


def test_campaign_envelope(tmp_path, capsys, monkeypatch):
    import repro.cli as cli
    from repro.core.dataset import Dataset, Instance

    def tiny(kind, instances, workers=None):
        return Dataset([
            Instance(features={"mobile_tcp_pkts": 1.0},
                     labels={"severity": "good", "location": "good",
                             "exact": "good", "existence": "good"})
        ])

    monkeypatch.setattr(cli, "_default_dataset", tiny)
    out_path = tmp_path / "out.pkl"
    assert main(["campaign", "--kind", "controlled",
                 "--out", str(out_path), "--json"]) == 0
    data = unwrap(capsys.readouterr().out, "campaign")
    assert data["out"] == str(out_path)
    assert data["kind"] == "controlled"
    assert data["instances"] == 1
    assert "severity" in data and "features" in data


def test_diagnose_envelope(dataset_file, capsys):
    assert main(["diagnose", "--train", dataset_file, "--vps", "mobile",
                 "--limit", "2", "--json"]) == 0
    data = unwrap(capsys.readouterr().out, "diagnose")
    assert data["model"]["schema"] == "repro-model-info-v1"
    assert data["model"]["vps"] == ["mobile"]
    assert len(data["diagnoses"]) == 2


def test_report_envelope(dataset_file, capsys):
    assert main(["report", "--train", dataset_file, "--json"]) == 0
    data = unwrap(capsys.readouterr().out, "report")
    assert data["n_sessions"] > 0


def test_stream_envelope_is_ndjson(tmp_path, dataset_file,
                                   mini_campaign_records, capsys):
    from repro.pipeline import JsonlSink, Pipeline

    spool = tmp_path / "mini.jsonl"
    Pipeline(mini_campaign_records[:3], JsonlSink(spool)).run()
    assert main(["stream", "--source", str(spool), "--diagnose",
                 "--train", dataset_file, "--vps", "mobile", "--json"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3
    for line in lines:
        entry = unwrap(line, "stream")
        assert "truth" in entry and "severity" in entry


def test_trace_envelope(capsys):
    assert main(["trace", "--kind", "controlled", "--instances", "2",
                 "--seed", "11", "--json"]) == 0
    data = unwrap(capsys.readouterr().out, "trace")
    assert data["campaign"]["instances"] == 2


def test_lint_envelope(tmp_path, capsys, monkeypatch):
    src = tmp_path / "clean.py"
    src.write_text('"""A file with nothing to flag."""\n')
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(src), "--json"]) == 0
    data = unwrap(capsys.readouterr().out, "lint")
    assert data["ok"] is True


# ------------------------------------------------------ sharded campaigns


@pytest.mark.parametrize("argv, fragment", [
    (["campaign", "--out", "c.jsonl", "--shard", "1"],
     "require(s) --shards"),
    (["campaign", "--out", "c.jsonl", "--orchestrate"],
     "unrecognized arguments: --orchestrate"),
    (["campaign", "--out", "c.jsonl", "--shard", "1", "--merge"],
     "--shard, --merge require(s) --shards"),
    (["campaign", "--out", "c.jsonl", "--merge"], "require(s) --shards"),
    (["campaign", "--out", "c.jsonl", "--resume"], "require(s) --shards"),
    (["campaign", "--out", "c.jsonl", "--shards", "0", "--shard", "0"],
     ">= 1"),
    (["campaign", "--out", "c.jsonl", "--shards", "2"], "exactly one"),
    (["campaign", "--out", "c.jsonl", "--shards", "2", "--shard", "0",
      "--merge"], "exactly one"),
    (["campaign", "--out", "c.jsonl", "--shards", "2", "--resume"],
     "(got none)"),
    (["campaign", "--out", "c.jsonl", "--shards", "2", "--shard", "2"],
     "in [0, 2)"),
    (["campaign", "--kind", "realworld", "--out", "c.jsonl",
      "--shards", "2", "--shard", "0"], "controlled"),
    (["campaign", "--out", "c.jsonl", "--shards", "2", "--merge",
      "--resume"], "--resume applies"),
], ids=["shard-alone", "orchestrate-alone", "shard-and-merge-alone",
        "merge-alone", "resume-alone", "zero-shards", "no-mode",
        "two-modes", "resume-is-not-a-mode", "shard-out-of-range",
        "non-controlled", "resume-with-merge"])
def test_shard_flag_conflicts_are_usage_errors(argv, fragment, capsys):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_resume_of_unsharded_spool_is_usage_error(tmp_path, capsys):
    from repro.pipeline import shard_spool_path

    base = tmp_path / "c.jsonl"
    spool = shard_spool_path(base, 0, 2)
    spool.write_text('{"not": "a sharded spool"}\n')
    rc = main(["campaign", "--out", str(base), "--shards", "2",
               "--shard", "0", "--resume"])
    assert rc == 2
    assert "no usable checkpoint" in capsys.readouterr().err


def _finished_shards(base, config, shards, key):
    """Synthetic finished shard spools whose checkpoints carry key(k)."""
    from repro.pipeline import (
        Checkpoint,
        save_checkpoint,
        shard_bounds,
        shard_spool_path,
    )

    for shard in range(shards):
        lo, hi = shard_bounds(config.n_instances, shards, shard)
        spool = shard_spool_path(base, shard, shards)
        spool.write_text("{}\n" * (hi - lo))
        save_checkpoint(spool, Checkpoint(config_key=key(shard),
                                          completed=hi - lo))


def test_pre_slice_shard_spool_is_domain_error(tmp_path, capsys):
    # Seed-partitioned shard spools carry the bare config fingerprint:
    # they are neither resumed nor merged.
    from repro.pipeline import config_fingerprint
    from repro.testbed.campaign import CampaignConfig

    config = CampaignConfig(n_instances=4, seed=5)
    base = tmp_path / "c.jsonl"
    _finished_shards(base, config, 2, lambda k: config_fingerprint(config))
    argv = ["campaign", "--instances", "4", "--seed", "5",
            "--out", str(base), "--shards", "2"]
    assert main(argv + ["--shard", "0", "--resume"]) == 1
    assert "different campaign or slice" in capsys.readouterr().err
    assert main(argv + ["--merge"]) == 1
    assert "different campaign or slice" in capsys.readouterr().err
    assert not base.exists()


def test_merge_with_other_seed_is_domain_error(tmp_path, capsys):
    from repro.pipeline import shard_key
    from repro.testbed.campaign import CampaignConfig

    config = CampaignConfig(n_instances=4, seed=5)
    base = tmp_path / "c.jsonl"
    _finished_shards(base, config, 2, lambda k: shard_key(config, 2, k))
    argv = ["campaign", "--instances", "4", "--out", str(base),
            "--shards", "2", "--merge"]
    assert main(argv + ["--seed", "6"]) == 1
    assert "different campaign or slice" in capsys.readouterr().err
    assert not base.exists()
    assert main(argv + ["--seed", "5"]) == 0
    capsys.readouterr()
    assert base.read_text() == "{}\n" * 4


def test_campaign_shard_envelope(tmp_path, capsys):
    base = tmp_path / "c.jsonl"
    argv = ["campaign", "--instances", "2", "--seed", "9",
            "--out", str(base), "--json"]
    assert main(argv + ["--shards", "1", "--shard", "0"]) == 0
    data = unwrap(capsys.readouterr().out, "campaign-shard")
    assert data["mode"] == "shard"
    assert data["shard"] == 0 and data["shards"] == 1
    assert data["records"] == 2 and data["resumed_at"] == 0

    assert main(argv + ["--shards", "1", "--merge"]) == 0
    data = unwrap(capsys.readouterr().out, "campaign-shard")
    assert data["mode"] == "merge"
    assert data["records"] == 2
    assert data["out"] == str(base)
