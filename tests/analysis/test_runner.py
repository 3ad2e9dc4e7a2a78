"""Runner integration: suppressions, CLI, self-check."""

import json
import shutil
import textwrap
from pathlib import Path

from repro.analysis import analyze_file, lint_paths, parse_suppression_comments
from repro.cli import build_parser, main

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


#: a synthetic ``repro``-shaped tree with a wall-clock read (D103) and a
#: consumed-unproduced metric (M201); a produced-unconsumed metric is not
#: a finding
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
        allowed = [(c.target, c.rules) for c in parse_suppression_comments(source)]
        assert allowed == [(1, {"D101"}), (3, {"D103", "M201"})]

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


class TestSyntheticTree:
    def test_expected_rules_found(self, tmp_path):
        write_synthetic_tree(tmp_path)
        result = lint_paths([tmp_path], root=tmp_path)
        rules = sorted({f.rule for f in result.findings})
        assert rules == ["D103", "M201"]

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
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["D101", "D102", "D103", "D104", "D105", "M201", "O501"]

    def test_lint_settable_values(self):
        (subparsers,) = [
            a for a in build_parser()._actions if a.dest == "command"
        ]
        lint = subparsers.choices["lint"]
        assert sorted(a.dest for a in lint._actions if a.dest != "help") == [
            "json", "paths", "rules", "sarif",
        ]


class TestSubtrees:
    """M201 needs the producers: a run without ``probes/`` matches nothing."""

    SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

    def test_consumer_subtree_alone_is_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(self.SRC.parent.parent)
        assert main(["lint", str(self.SRC / "core")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_planted_unproduced_name_caught_in_the_whole_package(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(self.SRC, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with (tree / "core" / "construction.py").open("a") as fh:
            fh.write('\n_PLANTED_COUNTERS = ("ghostcounter",)\n')
        result = lint_paths([tree], root=tmp_path)
        assert [(f.rule, f.path) for f in result.new_findings] == [
            ("M201", "repro/core/construction.py")]
        assert "ghostcounter" in result.new_findings[0].message
        core_only = lint_paths([tree / "core"], root=tmp_path)
        assert core_only.ok and core_only.namespace == {}


class TestSelfCheck:
    def test_own_source_tree_is_clean(self, repo_lint_result):
        assert repo_lint_result.ok, [
            f.render() for f in repo_lint_result.new_findings
        ] + repo_lint_result.parse_errors
        assert repo_lint_result.stale_suppressions == []
