"""Suppression semantics: targeting, multi-rule lists, stale reporting."""

import textwrap

from repro.analysis import Suppression, lint_paths, parse_suppression_comments
from repro.analysis.findings import Finding
from repro.analysis.suppressions import apply_suppressions, stale_suppressions


def write_tree(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestTargeting:
    def test_trailing_comment_targets_its_own_line(self):
        comments = parse_suppression_comments(
            "x = 1\nt = time.time()  # repro: allow[D103]\n"
        )
        assert [(c.line, c.target) for c in comments] == [(2, 2)]

    def test_comment_only_line_targets_the_next_line(self):
        comments = parse_suppression_comments(
            "# repro: allow[D103] startup timestamp, never enters records\n"
            "t = time.time()\n"
        )
        assert [(c.line, c.target) for c in comments] == [(1, 2)]

    def test_justification_text_after_bracket_is_ignored(self):
        comments = parse_suppression_comments(
            "# repro: allow[D105] value-safe pool shared across sessions\n"
            "pass\n"
        )
        assert comments[0].rules == {"D105"}

    def test_multi_rule_allow_list(self):
        comments = parse_suppression_comments(
            "value = pick()  # repro: allow[D101, D104,O501]\n"
        )
        assert comments[0].rules == {"D101", "D104", "O501"}

    def test_allow_inside_string_literal_is_not_a_suppression(self):
        comments = parse_suppression_comments(
            'DOC = "example:  # repro: allow[D101]"\n'
        )
        assert comments == []

    def test_legacy_dict_view_merges_targets(self):
        # Two comments aimed at one line merge: each excuses its own rule.
        comments = parse_suppression_comments(
            "# repro: allow[D101]\n"
            "t = time.time()  # repro: allow[D103, M201]\n"
        )
        assert [(c.target, c.rules) for c in comments] == [
            (2, {"D101"}), (2, {"D103", "M201"}),
        ]
        findings = apply_suppressions(
            [
                Finding(path="m.py", line=2, col=1, rule=rule, message="x")
                for rule in ("D101", "D103")
            ],
            comments,
        )
        assert all(f.suppressed for f in findings)
        assert stale_suppressions(comments) == []


class TestApplication:
    def finding(self, line, rule="D103"):
        return Finding(path="m.py", line=line, col=1, rule=rule, message="x")

    def test_matching_rule_suppresses_and_marks_used(self):
        comments = [Suppression(line=2, target=2, rules={"D103"})]
        findings = apply_suppressions([self.finding(2)], comments)
        assert findings[0].suppressed
        assert comments[0].used

    def test_line_above_comment_suppresses_next_line(self):
        comments = parse_suppression_comments(
            "# repro: allow[D103]\nt = time.time()\n"
        )
        findings = apply_suppressions([self.finding(2)], comments)
        assert findings[0].suppressed

    def test_wrong_rule_does_not_suppress_and_stays_stale(self):
        comments = [Suppression(line=2, target=2, rules={"D101"})]
        findings = apply_suppressions([self.finding(2)], comments)
        assert not findings[0].suppressed
        assert stale_suppressions(comments) == comments

    def test_wildcard_matches_any_rule(self):
        comments = [Suppression(line=2, target=2, rules={"*"})]
        assert apply_suppressions([self.finding(2)], comments)[0].suppressed


class TestRunnerIntegration:
    def test_line_above_suppression_in_lint_run(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            """
            import time

            # repro: allow[D103] boot timestamp, not simulation time
            T0 = time.time()
            """,
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert result.ok, [f.render() for f in result.new_findings]
        assert len(result.suppressed) == 1
        assert result.stale_suppressions == []

    def test_stale_suppression_reported_and_gating(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            """
            x = 1  # repro: allow[D103]
            """,
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert not result.ok  # a waiver must not outlive its violation
        assert len(result.stale_suppressions) == 1
        stale = result.stale_suppressions[0]
        assert stale.path == "simnet/mod.py"
        assert stale.rules == {"D103"}

    def test_stale_suppressions_serialized_and_rendered(self, tmp_path):
        write_tree(tmp_path, "simnet/mod.py", "x = 1  # repro: allow[D101]\n")
        result = lint_paths([tmp_path], root=tmp_path)
        payload = result.to_dict()
        assert payload["stale_suppressions"][0]["rules"] == ["D101"]
        from repro.analysis import render_text

        assert "stale suppression" in render_text(result)

    def test_used_suppression_is_not_stale(self, tmp_path):
        write_tree(
            tmp_path, "simnet/mod.py",
            """
            import time
            a = time.time()  # repro: allow[D103]
            b = 1  # repro: allow[D103]
            """,
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert len(result.suppressed) == 1
        assert len(result.stale_suppressions) == 1
        assert result.stale_suppressions[0].line == 4
