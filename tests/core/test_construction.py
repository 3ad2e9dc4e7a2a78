"""Unit tests for Feature Construction (Section 3.2)."""

import math
import warnings

import pytest

from repro.core.construction import FLOW, NORM, UTIL, FeatureConstructor, Recipe
from repro.core.dataset import Dataset, Instance
from repro.core.diagnosis import RootCauseAnalyzer


def make_instance(rx_rate, retx=5.0, pkts=100.0, session_s=20.0):
    return Instance(
        features={
            "mobile_tcp_s2c_retx_pkts": retx,
            "mobile_tcp_s2c_pkts": pkts,
            "mobile_tcp_s2c_retx_bytes": retx * 1460,
            "mobile_tcp_s2c_bytes": pkts * 1460,
            "mobile_tcp_flow_duration": 15.0,
            "mobile_link_rx_rate": rx_rate,
            "mobile_link_tx_rate": rx_rate / 10,
            "mobile_hw_cpu_avg": 0.4,
        },
        labels={"severity": "good", "location": "good", "exact": "good",
                "existence": "good"},
        meta={"session_s": session_s},
    )


@pytest.fixture()
def dataset():
    return Dataset([make_instance(2e6), make_instance(8e6), make_instance(4e6)])


def test_fit_learns_max_rates(dataset):
    fc = FeatureConstructor().fit(dataset)
    assert fc.nic_max_rates["mobile_link_rx_rate"] == 8e6


def test_utilization_in_unit_interval(dataset):
    fc = FeatureConstructor().fit(dataset)
    out = fc.transform(dataset)
    utils = [inst.features["mobile_link_rx_util"] for inst in out]
    assert utils == pytest.approx([0.25, 1.0, 0.5])
    assert all(0.0 <= u <= 1.0 for u in utils)


def test_count_normalisation_by_totals(dataset):
    fc = FeatureConstructor().fit(dataset)
    inst = fc.transform(dataset)[0]
    assert inst.features["mobile_tcp_s2c_retx_pkts_norm"] == pytest.approx(0.05)
    assert inst.features["mobile_tcp_s2c_retx_bytes_norm"] == pytest.approx(0.05)


def test_duration_normalised_by_session(dataset):
    fc = FeatureConstructor().fit(dataset)
    inst = fc.transform(dataset)[0]
    assert inst.features["mobile_tcp_flow_duration_norm"] == pytest.approx(15.0 / 20.0)


def test_zero_totals_safe():
    ds = Dataset([make_instance(1e6, retx=0.0, pkts=0.0)])
    fc = FeatureConstructor().fit(ds)
    inst = fc.transform(ds)[0]
    assert inst.features["mobile_tcp_s2c_retx_pkts_norm"] == 0.0


def test_raw_features_preserved(dataset):
    fc = FeatureConstructor().fit(dataset)
    inst = fc.transform(dataset)[0]
    assert inst.features["mobile_tcp_s2c_retx_pkts"] == 5.0
    assert inst.features["mobile_hw_cpu_avg"] == 0.4


def test_transform_before_fit_rejected(dataset):
    with pytest.raises(RuntimeError):
        FeatureConstructor().transform(dataset)


def test_transform_unseen_instance(dataset):
    """A live instance (diagnosis time) uses the *training* maxima."""
    fc = FeatureConstructor().fit(dataset)
    live = fc.transform_features(make_instance(16e6).features)
    assert live["mobile_link_rx_util"] == 1.0  # clamped


def test_constructed_names_listed(dataset):
    fc = FeatureConstructor().fit(dataset)
    names = fc.constructed_names(dataset.feature_names)
    assert "mobile_tcp_s2c_retx_pkts_norm" in names
    assert "mobile_link_rx_util" in names


def _analyzer():
    """A mobile-only analyzer over every raw and constructed feature."""
    instances = [make_instance(1e6 * (i + 1), retx=float(i % 7)) for i in range(24)]
    return RootCauseAnalyzer(vps=("mobile",), select=False).fit(Dataset(instances))


def _warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


class TestTransformRows:
    """Batch construction through the shared plan, and the M201 warning
    diagnosis raises when a row lacks a model input."""

    def test_matches_per_dict_transform(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        rows = [inst.features for inst in dataset]
        plan = fc.plan(list(fc.transform_features(rows[0])))
        matrix = plan.columns(rows, [0.0] * len(rows))
        for i, row in enumerate(rows):
            got = dict(zip(plan.names, matrix[i].tolist()))
            assert got == fc.transform_features(row)

    def test_session_duration_normalisation(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        rows = [inst.features for inst in dataset]
        plan = fc.plan(["mobile_tcp_flow_duration_norm"])
        column = plan.columns(rows, [20.0, 0.0, 30.0])[:, 0]
        assert column[0] == pytest.approx(15.0 / 20.0)
        assert column[1] == 0.0  # unknown duration: no normalisation
        assert column[2] == pytest.approx(15.0 / 30.0)

    def test_heterogeneous_rows_zero_filled(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        full = dict(dataset[0].features)
        rows = [full, {"mobile_hw_cpu_avg": 0.9}]
        plan = fc.plan(["mobile_hw_cpu_avg", "mobile_tcp_s2c_retx_pkts",
                        "mobile_tcp_s2c_retx_pkts_norm"])
        raw, missing = plan.gather(rows)
        assert "mobile_tcp_s2c_retx_pkts" in missing
        assert "mobile_hw_cpu_avg" not in missing
        got = dict(zip(plan.names, plan.evaluate(raw, [0.0, 0.0])[1].tolist()))
        assert got == {"mobile_hw_cpu_avg": 0.9, "mobile_tcp_s2c_retx_pkts": 0.0,
                       "mobile_tcp_s2c_retx_pkts_norm": 0.0}
        # row-local: the complete row is what it would be on its own
        assert plan.columns(rows, [0.0, 0.0])[0].tolist() == \
            plan.columns([full], [0.0])[0].tolist()

    def test_zero_fill_warning_names_features_and_fires_once(self):
        analyzer = _analyzer()
        rows = [dict(make_instance(2e6).features), {"mobile_hw_cpu_avg": 0.9}]
        messages = _warnings(analyzer.diagnose_batch, rows)
        assert len(messages) == 1
        # the warning lists the zero-filled names so the typo is findable
        assert "mobile_tcp_s2c_retx_pkts" in messages[0]
        assert "M201" in messages[0]
        # one-time per analyzer: a second batch stays silent
        assert _warnings(analyzer.diagnose_batch, rows) == []

    def test_zero_fill_refires_for_different_missing_set(self):
        analyzer = _analyzer()
        full = dict(make_instance(2e6).features)
        first = _warnings(analyzer.diagnose_batch, [full, {"mobile_hw_cpu_avg": 0.9}])
        assert len(first) == 1 and "mobile_tcp_s2c_retx_pkts" in first[0]
        # a *different* missing set is a different problem: warn again
        partial = {k: v for k, v in full.items()
                   if k != "mobile_tcp_flow_duration"}
        second = _warnings(analyzer.diagnose_batch, [full, partial])
        assert len(second) == 1 and "mobile_tcp_flow_duration" in second[0]
        # but each already-reported set stays silent on repeat
        for rows in ([full, {"mobile_hw_cpu_avg": 0.9}], [full, partial]):
            assert _warnings(analyzer.diagnose_batch, rows) == []

    def test_zero_fill_warns_on_missing_total_column(self):
        # homogeneous rows that lack the normalisation denominator
        analyzer = _analyzer()
        rows = [
            {k: v for k, v in make_instance(rate).features.items()
             if k != "mobile_tcp_s2c_pkts"}
            for rate in (2e6, 4e6)
        ]
        messages = _warnings(analyzer.diagnose_batch, rows)
        assert len(messages) == 1 and "mobile_tcp_s2c_pkts" in messages[0]
        columns = analyzer.compiled().columns(rows, [0.0, 0.0])
        norm = analyzer.compiled().plan.names.index("mobile_tcp_s2c_retx_pkts_norm")
        assert columns[:, norm].tolist() == [0.0, 0.0]
        # same missing set again: silent; a different one: warns
        assert _warnings(analyzer.diagnose_batch, rows) == []
        ragged = [dict(make_instance(2e6).features), {"mobile_hw_cpu_avg": 0.9}]
        assert len(_warnings(analyzer.diagnose_batch, ragged)) == 1

    def test_homogeneous_complete_rows_do_not_warn(self):
        analyzer = _analyzer()
        rows = [make_instance(rate).features for rate in (2e6, 4e6, 8e6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analyzer.diagnose_batch(rows)
            analyzer.diagnose(rows[0])

    def test_empty_batch(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        plan = fc.plan(["mobile_hw_cpu_avg", "mobile_link_rx_util"])
        assert plan.columns([], []).shape == (0, 2)
        assert fc.plan([]).columns([{"mobile_hw_cpu_avg": 1.0}], [0.0]).shape == (1, 0)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            FeatureConstructor().plan(["mobile_hw_cpu_avg"])

    def test_on_real_campaign_matches(self, mini_dataset):
        fc = FeatureConstructor().fit(mini_dataset)
        instances = mini_dataset.instances[:5]
        expected = [fc.transform_instance(inst).features for inst in instances]
        names = sorted(set().union(*expected))
        plan = fc.plan(names)
        matrix = plan.columns(
            [inst.features for inst in instances],
            [inst.meta["session_s"] for inst in instances],
        )
        for row, features in zip(matrix.tolist(), expected):
            assert row == [features.get(name, 0.0) for name in plan.names]


class TestRecipes:
    def test_constructed_names_have_recipes(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        out = fc.transform_instance(dataset[0]).features
        constructed = [n for n in out if n not in dataset[0].features]
        assert constructed and all(fc.recipe(n) is not None for n in constructed)
        assert all(fc.recipe(n) is None for n in dataset[0].features)

    def test_recipe_table(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        assert fc.recipe("mobile_tcp_s2c_retx_pkts_norm") == Recipe(
            NORM, ("mobile_tcp_s2c_retx_pkts", "mobile_tcp_s2c_pkts"))
        assert fc.recipe("mobile_tcp_s2c_retx_bytes_norm") == Recipe(
            NORM, ("mobile_tcp_s2c_retx_bytes", "mobile_tcp_s2c_bytes"))
        assert fc.recipe("mobile_link_rx_util") == Recipe(
            UTIL, ("mobile_link_rx_rate",), 8e6)
        assert fc.recipe("router_tcp_flow_duration_norm") == Recipe(
            FLOW, ("router_tcp_flow_duration",))
        # no fitted maximum for this NIC: not a constructed name
        assert fc.recipe("server_link_tx_util") is None
        assert fc.recipe("mobile_tcp_rtt_avg_norm") is None

    def test_raw_value_under_constructed_name_is_ignored(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        row = {"mobile_tcp_s2c_retx_pkts_norm": 0.7, "mobile_hw_cpu_avg": 0.4}
        assert fc.transform_features(row)["mobile_tcp_s2c_retx_pkts_norm"] == 0.0
        plan = fc.plan(["mobile_tcp_s2c_retx_pkts_norm"])
        assert plan.columns([row], [0.0]).tolist() == [[0.0]]

    def test_nan_rate_gives_nan_utilisation(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        live = fc.transform_features({"mobile_link_rx_rate": float("nan")})
        assert math.isnan(live["mobile_link_rx_util"])
        assert fc.transform_features({"mobile_link_rx_rate": float("inf")})[
            "mobile_link_rx_util"] == 1.0


class TestStateRoundTrip:
    def test_round_trip(self, dataset):
        fc = FeatureConstructor().fit(dataset)
        clone = FeatureConstructor.from_state(fc.to_state())
        assert clone.fitted
        assert clone.nic_max_rates == fc.nic_max_rates
        live = make_instance(16e6).features
        assert clone.transform_features(live) == fc.transform_features(live)

    def test_state_is_json_safe(self, dataset):
        import json

        fc = FeatureConstructor().fit(dataset)
        payload = json.loads(json.dumps(fc.to_state()))
        assert FeatureConstructor.from_state(payload).nic_max_rates == fc.nic_max_rates

    def test_unfit_state_rejected(self):
        with pytest.raises(RuntimeError):
            FeatureConstructor().to_state()

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            FeatureConstructor.from_state({"format": "something-else"})


def test_on_real_campaign(mini_dataset):
    fc = FeatureConstructor().fit(mini_dataset)
    out = fc.transform(mini_dataset)
    util_names = [n for n in out.feature_names if n.endswith("_util")]
    assert len(util_names) >= 6
    X = out.to_matrix(util_names)
    assert X.min() >= 0.0 and X.max() <= 1.0
    assert X.max() == 1.0  # someone is the max for each NIC
