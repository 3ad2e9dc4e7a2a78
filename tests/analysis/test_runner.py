"""Runner integration: suppressions, baseline round-trip, CLI, self-check."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_file,
    lint_paths,
    load_baseline,
    parse_suppressions,
    save_baseline,
)
from repro.cli import main

VIOLATION = textwrap.dedent(
    """
    import time


    def stamp():
        return time.time()
    """
)


def write_tree(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


#: a synthetic ``repro``-shaped tree with a wall-clock read (D103), a
#: consumed-unproduced and a produced-unconsumed metric (M201/M202) and a
#: registry entry whose declared producer never uses its tag (W702)
TREE = {
    "simnet/clock.py": """
        import time


        def stamp():
            return time.time()
        """,
    "probes/player.py": """
        class PlayerProbe:
            def metrics(self):
                return {"stall_events": 1.0, "orphan_metric": 2.0}
        """,
    "core/selection.py": """
        SELECTED_FEATURES = ("stall_events", "ghost_metric")
        """,
    "schemas.py": """
        EXTERNAL = "external:"
        RECORD_V1 = "repro-record-v1"


        class WireSchema:
            def __init__(self, tag, doc, producers=(), consumers=()):
                pass


        SCHEMAS = (
            WireSchema(
                tag=RECORD_V1,
                doc="records",
                producers=("pipeline/records.py",),
                consumers=(EXTERNAL + "tests",),
            ),
        )
        """,
    "pipeline/records.py": """
        def write(payload):
            # declared producer of repro records, but the reference to the
            # registry constant is gone -> W702 at the registry entry
            payload["written"] = True
        """,
}


def write_synthetic_tree(root: Path) -> None:
    for rel, source in TREE.items():
        write_tree(root, rel, textwrap.dedent(source))


class TestSuppressions:
    def test_parse_single_and_multiple_rules(self):
        source = (
            "x = 1  # repro: allow[D101]\n"
            "y = 2\n"
            "z = 3  # repro: allow[D103, M201]\n"
        )
        allowed = parse_suppressions(source)
        assert allowed == {1: {"D101"}, 3: {"D103", "M201"}}

    def test_allow_comment_silences_finding(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            "import time\nt0 = time.time()  # repro: allow[D103]\n",
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert result.new_findings == []
        assert len(result.suppressed) == 1
        assert result.ok

    def test_wildcard_allow(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            "import time\nt0 = time.time()  # repro: allow[*]\n",
        )
        assert lint_paths([tmp_path], root=tmp_path).ok

    def test_wrong_rule_does_not_silence(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            "import time\nt0 = time.time()  # repro: allow[D101]\n",
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in result.new_findings] == ["D103"]


class TestBaseline:
    def test_round_trip_accepts_existing_findings(self, tmp_path):
        write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        baseline = tmp_path / "lint-baseline.json"

        first = lint_paths([tmp_path], root=tmp_path)
        assert not first.ok
        save_baseline(baseline, first.findings)

        second = lint_paths([tmp_path], root=tmp_path, baseline_path=baseline)
        assert second.ok
        assert len(second.baselined) == 1

    def test_baseline_survives_line_renumbering(self, tmp_path):
        path = write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        baseline = tmp_path / "lint-baseline.json"
        save_baseline(baseline, lint_paths([tmp_path], root=tmp_path).findings)

        path.write_text("# a new leading comment\n" + VIOLATION)
        moved = lint_paths([tmp_path], root=tmp_path, baseline_path=baseline)
        assert moved.ok, [f.render() for f in moved.new_findings]

    def test_new_violation_not_masked_by_baseline(self, tmp_path):
        write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        baseline = tmp_path / "lint-baseline.json"
        save_baseline(baseline, lint_paths([tmp_path], root=tmp_path).findings)

        write_tree(
            tmp_path, "simnet/other.py",
            "import random\nx = random.random()\n",
        )
        result = lint_paths([tmp_path], root=tmp_path, baseline_path=baseline)
        assert [f.rule for f in result.new_findings] == ["D101"]

    def test_rejects_foreign_format(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_notes_never_enter_baseline(self, tmp_path):
        write_tree(
            tmp_path, "probes/p.py",
            'class P:\n    def stop(self):\n        return {"orphan": 1.0}\n',
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in result.notes] == ["M202"]
        payload = save_baseline(tmp_path / "b.json", result.findings)
        assert payload["entries"] == []


class TestSyntheticTree:
    def test_expected_rules_found(self, tmp_path):
        write_synthetic_tree(tmp_path)
        result = lint_paths([tmp_path], root=tmp_path)
        rules = sorted({f.rule for f in result.findings})
        assert rules == ["D103", "M201", "M202", "W702"]

    def test_syntax_error_recorded_not_raised(self):
        facts = analyze_file("bad.py", "bad.py", "def f(:\n")
        assert facts.parse_error is not None
        assert facts.findings == []


class TestParseErrors:
    def test_syntax_error_reported_not_crashed(self, tmp_path):
        write_tree(tmp_path, "simnet/broken.py", "def f(:\n")
        result = lint_paths([tmp_path], root=tmp_path)
        assert not result.ok
        assert any("syntax error" in e for e in result.parse_errors)


class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, "simnet/ok.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violation_exits_nonzero_with_location(
        self, tmp_path, capsys, monkeypatch
    ):
        write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "simnet/mod.py:6" in out
        assert "D103" in out

    def test_update_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(tmp_path), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_json_output(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path), "--json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == "repro-lint-v1"
        payload = envelope["data"]
        assert payload["ok"] is False
        assert payload["new"][0]["rule"] == "D103"

    def test_lint_leaves_no_files_behind(self, tmp_path, capsys, monkeypatch):
        write_synthetic_tree(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == before

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D101", "D104", "M201", "F303"):
            assert rule_id in out


class TestSelfCheck:
    def test_own_source_tree_is_clean_against_baseline(self, repo_lint_result):
        assert repo_lint_result.ok, [
            f.render() for f in repo_lint_result.new_findings
        ] + repo_lint_result.parse_errors

    def test_committed_baseline_is_zero_entry_for_simnet_and_faults(self):
        from tests.analysis.conftest import REPO_ROOT

        data = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert data["format"] == "repro-lint-baseline-v1"
        assert [
            e for e in data["entries"]
            if e["path"].startswith(("src/repro/simnet", "src/repro/faults"))
        ] == []
