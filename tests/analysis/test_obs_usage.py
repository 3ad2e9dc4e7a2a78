"""Telemetry-usage pass (O501): span context-manager discipline."""

import textwrap

from repro.analysis import lint_paths
from repro.analysis.obs_usage import check_obs_usage

from .test_runner import write_tree


def rules_of(source):
    return [
        f.rule for f in check_obs_usage("mod.py", textwrap.dedent(source))
    ]


class TestO501:
    def test_with_span_is_clean(self):
        source = """
        from repro.obs.telemetry import get_telemetry

        def run():
            tel = get_telemetry()
            with tel.span("outer", kind="x") as sp:
                sp.count("records")
                with tel.span("inner"):
                    pass
        """
        assert rules_of(source) == []

    def test_bare_span_call_flagged(self):
        source = """
        def run(tel):
            span = tel.span("leaked")
            span.count("records")
        """
        assert rules_of(source) == ["O501"]

    def test_span_passed_as_argument_flagged(self):
        source = """
        def run(tel, consume):
            consume(tel.span("leaked"))
        """
        assert rules_of(source) == ["O501"]

    def test_span_in_expression_statement_flagged(self):
        source = """
        def run(tel):
            tel.span("dropped")
        """
        assert rules_of(source) == ["O501"]

    def test_start_on_unrelated_name_is_clean(self):
        source = """
        def run(process):
            process.start()
            process.finish()
        """
        assert rules_of(source) == []

    def test_record_span_is_clean(self):
        source = """
        def run(tel):
            tel.record_span("agg", dur_s=0.5, counts={"n": 3})
        """
        assert rules_of(source) == []

    def test_multi_item_with_is_clean(self):
        source = """
        def run(tel, lock):
            with lock, tel.span("s"):
                pass
        """
        assert rules_of(source) == []


class TestRouting:
    def test_pass_runs_on_every_package(self, tmp_path):
        # not a determinism/pipeline package — O501 must still fire
        write_tree(
            tmp_path, "anywhere/mod.py",
            "def run(tel):\n    span = tel.span('leaked')\n",
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in result.new_findings] == ["O501"]

    def test_allow_comment_silences(self, tmp_path):
        write_tree(
            tmp_path, "anywhere/mod.py",
            "def run(tel):\n"
            "    span = tel.span('x')  # repro: allow[O501]\n",
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert result.ok
        assert len(result.suppressed) == 1


class TestSelfCheck:
    def test_project_source_has_no_new_o501(self, repo_lint_result):
        assert [
            f for f in repo_lint_result.new_findings if f.rule == "O501"
        ] == []
