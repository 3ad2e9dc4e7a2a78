"""Metric-schema pass (M2xx): producers/consumers on fixture sources."""

import textwrap

from repro.analysis.schema import (
    extract_consumed,
    extract_produced,
    is_produced,
    match_metric_refs,
)

PROBE = textwrap.dedent(
    """
    class Probe:
        def stop(self):
            out = {
                "tx_rate": 1.0,
                "data_pkts": 2.0,
            }
            out["flow_duration"] = 3.0
            return out

        def _read(self):
            # not an emission method: keys here are internal state
            return {"scratch_counter": 0.0}
    """
)

CONSUMER = textwrap.dedent(
    """
    _PKT_COUNTERS = ("data_pkts",)
    _RATE_SUFFIXES = ("tx_rate",)

    def construct(features, vp):
        key = f"{vp}_tcp_flow_duration"
        return features.get(key, 0.0)
    """
)


def check_schema(probe, consumer):
    return match_metric_refs(
        extract_produced("probes/p.py", probe),
        extract_consumed("core/c.py", consumer),
    )


class TestExtraction:
    def test_produced_names_from_emission_methods_only(self):
        names = {ref.name for ref in extract_produced("probes/p.py", PROBE)}
        assert names == {"tx_rate", "data_pkts", "flow_duration"}

    def test_consumed_names_from_constants_and_fstrings(self):
        names = {ref.name for ref in extract_consumed("core/c.py", CONSUMER)}
        assert names == {"data_pkts", "tx_rate", "tcp_flow_duration"}

    def test_constructed_suffix_fragments_ignored(self):
        source = 'def f(name):\n    return f"{name}_norm" + f"{name}_util"\n'
        assert extract_consumed("core/c.py", source) == []


class TestMatching:
    def test_suffix_match_through_prefix_composition(self):
        produced = {"flow_duration", "tx_rate"}
        assert is_produced("tcp_flow_duration", produced)
        assert is_produced("tx_rate_util", produced)
        assert not is_produced("tcp_flow_durations", produced)

    def test_clean_pair_has_no_m201(self):
        findings, namespace = check_schema(PROBE, CONSUMER)
        assert findings == []
        assert namespace["produced"] == {"tx_rate", "data_pkts", "flow_duration"}

    def test_consumed_unproduced_is_error(self):
        bad = CONSUMER.replace('"data_pkts"', '"data_pktz"')
        findings, _ = check_schema(PROBE, bad)
        m201 = [f for f in findings if f.rule == "M201"]
        assert len(m201) == 1
        assert "data_pktz" in m201[0].message
        assert m201[0].severity == "error"
        assert m201[0].path == "core/c.py"
        assert m201[0].line > 0

    def test_produced_unconsumed_is_not_a_finding(self):
        probe = PROBE.replace('"data_pkts": 2.0,',
                              '"data_pkts": 2.0,\n                "orphan_metric": 9.0,')
        findings, namespace = check_schema(probe, CONSUMER)
        assert findings == []
        assert "orphan_metric" in namespace["produced"]


class TestRealRepo:
    def test_repo_namespace_is_consistent(self, repo_lint_result):
        m201 = [f for f in repo_lint_result.findings if f.rule == "M201"]
        assert m201 == [], [f.render() for f in m201]

    def test_repo_namespace_nonempty(self, repo_lint_result):
        assert len(repo_lint_result.namespace["produced"]) > 50
        assert "data_pkts" in repo_lint_result.namespace["produced"]
        assert "data_pkts" in repo_lint_result.namespace["consumed"]
