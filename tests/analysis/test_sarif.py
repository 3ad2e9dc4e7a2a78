"""SARIF 2.1.0 output: document shape, levels, CLI flag."""

import json
import textwrap

from repro.analysis import lint_paths, to_sarif, write_sarif
from repro.cli import main

VIOLATION = textwrap.dedent(
    """
    import time


    def stamp():
        return time.time()
    """
)


def write_tree(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def lint_violation(tmp_path):
    write_tree(tmp_path, "simnet/mod.py", VIOLATION)
    return lint_paths([tmp_path], root=tmp_path)


class TestDocumentShape:
    def test_header_and_tool(self, tmp_path):
        doc = to_sarif(lint_violation(tmp_path))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "D103" in rule_ids

    def test_result_location_and_level(self, tmp_path):
        doc = to_sarif(lint_violation(tmp_path))
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "D103"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "simnet/mod.py"
        assert location["region"]["startLine"] == 6

    def test_suppressed_findings_not_exported(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            "import time\nt = time.time()  # repro: allow[D103]\n",
        )
        doc = to_sarif(lint_paths([tmp_path], root=tmp_path))
        assert doc["runs"][0]["results"] == []

    def test_invocation_reflects_outcome(self, tmp_path):
        doc = to_sarif(lint_violation(tmp_path))
        invocation = doc["runs"][0]["invocations"][0]
        assert invocation["exitCode"] == 1
        assert invocation["executionSuccessful"] is True


class TestWriteSarif:
    def test_written_file_is_valid_json(self, tmp_path):
        out = tmp_path / "lint.sarif"
        count = write_sarif(out, lint_violation(tmp_path))
        payload = json.loads(out.read_text())
        assert count == len(payload["runs"][0]["results"]) == 1


class TestCliFlag:
    def test_sarif_flag_writes_log_alongside_text(
        self, tmp_path, capsys, monkeypatch
    ):
        write_tree(tmp_path, "simnet/mod.py", VIOLATION)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "lint.sarif"
        assert main(["lint", str(tmp_path), "--sarif", str(out)]) == 1
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "D103"
        # the human report still goes to stdout
        assert "D103" in capsys.readouterr().out
