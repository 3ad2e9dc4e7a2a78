"""Batch diagnosis, the record-or-dict API, and v1/v2 persistence."""

import json

import pytest

from repro.core.construction import FeatureConstructor
from repro.core.diagnosis import DiagnosisReport, RootCauseAnalyzer


@pytest.fixture(scope="module")
def analyzer(mini_dataset):
    return RootCauseAnalyzer().fit(mini_dataset)


class TestDiagnoseBatch:
    def test_label_parity_with_looped_diagnose(self, analyzer, mini_dataset):
        looped = [analyzer.diagnose(inst) for inst in mini_dataset]
        batched = analyzer.diagnose_batch(mini_dataset.instances)
        assert len(batched) == len(mini_dataset)
        for one, many in zip(looped, batched):
            assert one.severity == many.severity
            assert one.location == many.location
            assert one.exact == many.exact

    def test_accepts_raw_dicts(self, analyzer, mini_dataset):
        rows = [dict(inst.features) for inst in mini_dataset.instances[:4]]
        batched = analyzer.diagnose_batch(rows)
        looped = [analyzer.diagnose(row) for row in rows]
        assert [r.exact for r in batched] == [r.exact for r in looped]

    def test_empty_batch(self, analyzer):
        assert analyzer.diagnose_batch([]) == []

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            RootCauseAnalyzer().diagnose_batch([{"mobile_hw_cpu_avg": 1.0}])

    def test_reports_are_complete(self, analyzer, mini_dataset):
        for report in analyzer.diagnose_batch(mini_dataset.instances[:3]):
            assert isinstance(report, DiagnosisReport)
            assert report.severity in ("good", "mild", "severe")
            assert report.vps == analyzer.vps
            assert "used_features" in report.details


class TestDiagnoseUnion:
    def test_diagnose_accepts_record(self, analyzer, mini_dataset):
        inst = mini_dataset[0]
        via_record = analyzer.diagnose(inst)
        via_dict = analyzer.diagnose(
            dict(inst.features),
            session_s=float(inst.meta.get("session_s", 0.0) or 0.0),
        )
        assert via_record.exact == via_dict.exact
        assert via_record.severity == via_dict.severity

    def test_explain_accepts_record(self, analyzer, mini_dataset):
        inst = mini_dataset[0]
        label, path = analyzer.explain(inst, task="exact")
        assert label == analyzer.diagnose(inst).exact
        assert isinstance(path, list)


class TestReportSerialisation:
    def test_to_dict_fields(self):
        report = DiagnosisReport(
            severity="severe",
            location="lan_severe",
            exact="wifi_interference_severe",
            vps=("mobile",),
        )
        data = report.to_dict()
        assert data["severity"] == "severe"
        assert data["cause"] == "wifi_interference"
        assert data["problem_location"] == "lan"
        assert data["has_problem"] is True
        assert data["vps"] == ["mobile"]
        assert "interference" in data["summary"]

    def test_to_json_round_trips(self, analyzer, mini_dataset):
        report = analyzer.diagnose(mini_dataset[0])
        data = json.loads(report.to_json())
        assert data == report.to_dict()


class TestPersistenceV2:
    def test_save_emits_v2_with_constructor_state(self, analyzer, tmp_path):
        path = tmp_path / "analyzer.json"
        analyzer.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-analyzer-v2"
        assert payload["constructor"]["format"] == "repro-fc-v1"
        assert payload["constructor"]["nic_max_rates"]

    def test_v2_round_trip(self, analyzer, mini_dataset, tmp_path):
        path = tmp_path / "analyzer.json"
        analyzer.save(path)
        clone = RootCauseAnalyzer.load(path)
        assert isinstance(clone.constructor, FeatureConstructor)
        assert clone.constructor.fitted
        for inst in mini_dataset.instances[:5]:
            assert clone.diagnose(inst).exact == analyzer.diagnose(inst).exact

    def test_v1_payload_still_loads(self, analyzer, mini_dataset, tmp_path):
        """A pre-redesign export round-trips through the v2 loader."""
        path = tmp_path / "analyzer.json"
        analyzer.save(path)
        payload = json.loads(path.read_text())
        v1 = dict(payload)
        v1["format"] = "repro-analyzer-v1"
        v1["nic_max_rates"] = payload["constructor"]["nic_max_rates"]
        del v1["constructor"]
        path.write_text(json.dumps(v1))
        clone = RootCauseAnalyzer.load(path)
        for inst in mini_dataset.instances[:5]:
            assert clone.diagnose(inst).exact == analyzer.diagnose(inst).exact

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "repro-analyzer-v99"}))
        with pytest.raises(ValueError):
            RootCauseAnalyzer.load(path)


def test_fleet_report_uses_batch_path(analyzer, mini_dataset):
    """fleet_report rides diagnose_batch and stays consistent with it."""
    from repro.core.report import fleet_report

    fleet = fleet_report(analyzer, mini_dataset)
    batched = analyzer.diagnose_batch(mini_dataset.instances)
    severities = {}
    for report in batched:
        severities[report.severity] = severities.get(report.severity, 0) + 1
    assert fleet.severity_counts == severities
    assert fleet.n_sessions == len(mini_dataset)
    data = fleet.to_dict()
    assert data["n_sessions"] == len(mini_dataset)
    assert set(data["severity_counts"]) == set(severities)
