"""Tests for the command-line interface."""

import pickle
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def dataset_file(tmp_path, mini_dataset):
    path = tmp_path / "mini.pkl"
    with path.open("wb") as fh:
        pickle.dump(mini_dataset, fh)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_evaluate_fig3_on_pickle(dataset_file, capsys):
    rc = main(["evaluate", "--experiment", "fig3", "--dataset", dataset_file])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Problem detection" in out and "accuracy" in out


def test_evaluate_table1_on_pickle(dataset_file, capsys):
    rc = main(["evaluate", "--experiment", "table1", "--dataset", dataset_file])
    assert rc == 0
    assert "Table 1" in capsys.readouterr().out


def test_evaluate_transfer_experiment(dataset_file, capsys):
    rc = main([
        "evaluate", "--experiment", "fig8",
        "--train", dataset_file, "--dataset", dataset_file,
    ])
    assert rc == 0
    assert "Figure 8" in capsys.readouterr().out


def test_diagnose_prints_reports(dataset_file, capsys):
    rc = main([
        "diagnose", "--train", dataset_file, "--dataset", dataset_file,
        "--vps", "mobile", "--limit", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("truth=") == 4
    assert "agreement" in out


def test_campaign_roundtrip(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "out.pkl"

    # Keep the CLI test fast: patch the dataset builder.
    import repro.cli as cli

    def tiny(kind, instances, workers=None):
        from repro.core.dataset import Dataset, Instance
        return Dataset([
            Instance(features={"mobile_tcp_pkts": 1.0},
                     labels={"severity": "good", "location": "good",
                             "exact": "good", "existence": "good"})
        ])

    monkeypatch.setattr(cli, "_default_dataset", tiny)
    rc = main(["campaign", "--kind", "controlled", "--out", str(out_path)])
    assert rc == 0
    with out_path.open("rb") as fh:
        ds = pickle.load(fh)
    assert len(ds) == 1


def test_bad_pickle_rejected(tmp_path, capsys):
    path = tmp_path / "junk.pkl"
    with path.open("wb") as fh:
        pickle.dump({"not": "a dataset"}, fh)
    rc = main(["evaluate", "--experiment", "fig3", "--dataset", str(path)])
    assert rc == 1  # domain failure, not usage
    assert "repro: error:" in capsys.readouterr().err


def test_report_command(dataset_file, capsys):
    rc = main(["report", "--train", dataset_file, "--dataset", dataset_file])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fleet QoE report" in out


def test_diagnose_json_output(dataset_file, capsys):
    import json

    rc = main([
        "diagnose", "--train", dataset_file, "--dataset", dataset_file,
        "--vps", "mobile", "--limit", "3", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-diagnose-v1"
    data = payload["data"]
    assert data["model"]["schema"] == "repro-model-info-v1"
    assert len(data["diagnoses"]) == 3
    for entry in data["diagnoses"]:
        assert entry["severity"] in ("good", "mild", "severe")
        assert "truth" in entry and "summary" in entry


def test_report_json_output(dataset_file, capsys):
    import json

    rc = main(["report", "--train", dataset_file, "--dataset", dataset_file,
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-report-v1"
    assert payload["data"]["n_sessions"] > 0
    assert "severity_counts" in payload["data"]


def test_campaign_accepts_workers(tmp_path, monkeypatch):
    out_path = tmp_path / "out.pkl"
    import repro.cli as cli

    seen = {}

    def tiny(kind, instances, workers=None):
        seen["workers"] = workers
        from repro.core.dataset import Dataset, Instance
        return Dataset([
            Instance(features={"mobile_tcp_pkts": 1.0},
                     labels={"severity": "good", "location": "good",
                             "exact": "good", "existence": "good"})
        ])

    monkeypatch.setattr(cli, "_default_dataset", tiny)
    rc = main(["campaign", "--kind", "controlled", "--workers", "2",
               "--out", str(out_path)])
    assert rc == 0
    assert seen["workers"] == 2


def test_diagnose_explain_flag(dataset_file, capsys):
    rc = main([
        "diagnose", "--train", dataset_file, "--dataset", dataset_file,
        "--vps", "mobile", "--limit", "2", "--explain",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "because" in out


@pytest.fixture()
def spool_file(tmp_path, mini_campaign_records):
    from repro.pipeline import JsonlSink, Pipeline

    path = tmp_path / "mini.jsonl"
    Pipeline(mini_campaign_records[:6], JsonlSink(path)).run()
    return str(path)


def test_stream_replays_spool(spool_file, capsys):
    rc = main(["stream", "--source", spool_file])
    assert rc == 0
    out = capsys.readouterr().out
    assert "streamed 6 sessions" in out


def test_stream_diagnoses_spool(spool_file, dataset_file, capsys):
    rc = main([
        "stream", "--source", spool_file, "--diagnose",
        "--train", dataset_file, "--vps", "mobile", "--chunk", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("truth=") == 6
    assert "streamed 6 sessions" in out


def test_stream_json_output(spool_file, dataset_file, capsys):
    import json

    rc = main([
        "stream", "--source", spool_file, "--diagnose",
        "--train", dataset_file, "--vps", "mobile", "--json",
    ])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6
    for line in lines:
        envelope = json.loads(line)
        assert envelope["schema"] == "repro-stream-v1"
        entry = envelope["data"]
        assert entry["severity"] in ("good", "mild", "severe")
        assert "truth" in entry


def test_stream_source_rejects_resume(spool_file, capsys):
    assert main(["stream", "--source", spool_file, "--resume"]) == 2
    assert "--resume" in capsys.readouterr().err


def test_stream_source_rejects_sink(spool_file, tmp_path, capsys):
    rc = main(["stream", "--source", spool_file,
               "--sink", str(tmp_path / "copy.jsonl")])
    assert rc == 2
    assert "--sink" in capsys.readouterr().err


def _spool_line_with_feature(spool_file, value):
    import json

    payload = json.loads(Path(spool_file).read_text().splitlines()[0])
    name = sorted(payload["features"])[0]
    return json.dumps(payload).replace(
        f'"{name}": {json.dumps(payload["features"][name])}',
        f'"{name}": {value}', 1)


@pytest.mark.parametrize("second_line", [
    '"x"',
    None,
    "1" * 401,
    b"\xff\xfe",
    "missing",
], ids=["string-feature", "not-json", "401-digit-int", "not-utf8",
        "missing-file"])
def test_stream_source_bad_spool_is_domain_error(
    spool_file, tmp_path, capsys, second_line
):
    bad = tmp_path / "bad.jsonl"
    if second_line != "missing":
        first = Path(spool_file).read_bytes().splitlines()[0]
        if second_line is None:
            line = b"{not json"
        elif isinstance(second_line, bytes):
            line = second_line
        else:
            line = _spool_line_with_feature(spool_file, second_line).encode()
        bad.write_bytes(first + b"\n" + line + b"\n" + first + b"\n")
    assert main(["stream", "--source", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert str(bad) in err
    assert "Traceback" not in err
    if second_line != "missing":
        assert f"{bad}:2:" in err


def test_stream_resume_requires_sink(capsys):
    assert main(["stream", "--resume"]) == 2
    assert "--sink" in capsys.readouterr().err


def test_stream_resume_refuses_foreign_spool(tmp_path, capsys):
    from repro.pipeline import Checkpoint, save_checkpoint

    spool = tmp_path / "foreign.jsonl"
    spool.write_text("{}\n")
    save_checkpoint(spool, Checkpoint(config_key="someone-else", completed=1))
    rc = main(["stream", "--kind", "controlled", "--instances", "2",
               "--resume", "--sink", str(spool)])
    assert rc == 1  # domain failure: spool exists but belongs elsewhere
    assert "different campaign" in capsys.readouterr().err


def test_stream_simulates_and_spools(tmp_path, capsys):
    spool = tmp_path / "sim.jsonl"
    rc = main(["stream", "--kind", "controlled", "--instances", "2",
               "--seed", "55", "--sink", str(spool)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "streamed 2 sessions" in out
    assert len(spool.read_text().splitlines()) == 2
    assert not spool.with_name(spool.name + ".ckpt").exists()
