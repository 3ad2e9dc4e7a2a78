"""Differential tests: compiled inference vs the object reference path.

Everything the compiled engine touches — the structure-of-arrays tree
descent, the fused analyzer batch plan, the batched FCBF counting and
the vectorized NB/SVM scoring — claims *bit-identity* with the original
per-node / per-pair / per-class implementations.  These tests hold that
claim against Hypothesis-driven random models and feature matrices,
including the unpleasant corners: NaNs and ±inf in live features, empty
batches, single-class (root-leaf) trees, heterogeneous row key sets and
missing normalisation totals.  The object reference engine is
``tests.oracles.object_engine``.  The analyzer's one plan is also held
to its own contract: ``diagnose``, ``explain`` and ``diagnose_batch``
agree on every row, and a row's report never depends on its batch.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dataset import Dataset, Instance
from repro.core.diagnosis import RootCauseAnalyzer
from repro.ml.compiled import TreePlan
from repro.ml.naive_bayes import GaussianNB
from repro.ml.svm import LinearSVM
from repro.ml.tree import C45Tree
from tests.oracles import object_engine


def predict_engine(mode):
    """The production engine, or the object oracle from tests/oracles.py."""
    return object_engine() if mode == "object" else contextlib.nullcontext()


def _random_tree(seed, n_classes=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 90))
    f = int(rng.integers(1, 7))
    k = n_classes if n_classes is not None else int(rng.integers(1, 5))
    X = rng.normal(0, 1, (n, f)).round(2)  # rounding forces value ties
    y = rng.integers(0, k, n).astype(str)
    tree = C45Tree(min_leaf=int(rng.integers(1, 4))).fit(X, y)
    return tree, X, rng


def _eval_matrix(rng, f, n_rows):
    """An evaluation batch salted with NaN, +/-inf and repeated values."""
    X = rng.normal(0, 1, (n_rows, f)).round(2)
    if n_rows:
        flat = X.reshape(-1)
        idx = rng.integers(0, flat.size, max(1, flat.size // 8))
        flat[idx[0::3]] = np.nan
        flat[idx[1::3]] = np.inf
        flat[idx[2::3]] = -np.inf
    return X


# ------------------------------------------------------------------ trees


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tree_predict_bitwise_identical_across_engines(seed):
    tree, _Xtr, rng = _random_tree(seed)
    X = _eval_matrix(rng, tree.n_features, int(rng.integers(0, 40)))
    with predict_engine("object"):
        ref = tree.predict(X)
    with predict_engine("compiled"):
        got = tree.predict(X)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_predict_one_matches_batch_row_for_row(seed):
    tree, _Xtr, rng = _random_tree(seed)
    X = _eval_matrix(rng, tree.n_features, 10)
    with predict_engine("compiled"):
        batch = tree.predict(X)
        singles = [tree.predict_one(list(row)) for row in X]
    with predict_engine("object"):
        singles_obj = [tree.predict_one(list(row)) for row in X]
    assert list(batch) == singles == singles_obj


def test_single_class_tree_is_a_root_leaf():
    tree, _Xtr, rng = _random_tree(7, n_classes=1)
    plan = tree.compiled_plan()
    assert plan.n_nodes == 1 and bool(plan.is_leaf[0])
    X = _eval_matrix(rng, tree.n_features, 6)
    with predict_engine("compiled"):
        got = tree.predict(X)
    with predict_engine("object"):
        ref = tree.predict(X)
    assert np.array_equal(got, ref)
    assert set(got) == set(tree.classes_)


def test_empty_batch_both_engines():
    tree, _Xtr, _rng = _random_tree(3)
    X = np.zeros((0, tree.n_features))
    for mode in ("object", "compiled"):
        with predict_engine(mode):
            out = tree.predict(X)
        assert out.shape == (0,)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_plan_structure_invariants(seed):
    tree, _Xtr, _rng = _random_tree(seed)
    plan = TreePlan.from_root(tree.root)
    n = plan.n_nodes
    assert n == tree.n_nodes
    ids = np.arange(n)
    # leaves self-loop so a descent step parks them; interior nodes step
    assert np.array_equal(plan.left[plan.is_leaf], ids[plan.is_leaf])
    assert np.array_equal(plan.right[plan.is_leaf], ids[plan.is_leaf])
    interior = ~plan.is_leaf
    assert (plan.left[interior] != ids[interior]).all()
    assert (plan.right[interior] != ids[interior]).all()
    assert (plan.leaf_label >= 0).all()
    assert (plan.leaf_label < len(tree.classes_)).all()
    # preorder: every child index is greater than its parent's
    assert (plan.left[interior] > ids[interior]).all()
    assert (plan.right[interior] > ids[interior]).all()


def test_nan_routes_right_like_python_comparison():
    # One split at 0.0: NaN <= 0.0 is False, so NaN rows take the right
    # child in both engines, like the scalar comparison in C4.5.
    X = np.array([[-1.0], [-0.5], [0.5], [1.0]] * 3)
    y = np.array(["l"] * 6 + ["r"] * 6)
    X[:6] = -abs(X[:6])
    X[6:] = abs(X[6:])
    tree = C45Tree(min_leaf=1, prune=False).fit(X, y)
    probe = np.array([[np.nan], [np.inf], [-np.inf]])
    with predict_engine("compiled"):
        got = tree.predict(probe)
    with predict_engine("object"):
        ref = tree.predict(probe)
    assert np.array_equal(got, ref)
    assert got[0] == got[1] == "r"
    assert got[2] == "l"


# --------------------------------------------------------------- analyzer


def _mini_analyzer(seed, select):
    rng = np.random.default_rng(seed)
    names = (
        [f"mobile_tcp_c2s_{c}" for c in ("pkts", "bytes", "data_pkts", "retx_pkts")]
        + ["mobile_tcp_rtt_avg", "mobile_tcp_flow_duration",
           "mobile_link_tx_rate", "mobile_hw_cpu_avg"]
    )

    def features():
        return {n: float(v) for n, v in zip(names, rng.uniform(1, 100, len(names)))}

    instances = []
    for _ in range(40):
        f = features()
        sev = "good" if f["mobile_tcp_rtt_avg"] < 50 else "severe"
        instances.append(
            Instance(
                features=f,
                labels={
                    "severity": sev,
                    "location": "good" if sev == "good" else "wan_severe",
                    "exact": "good" if sev == "good" else "wan_congestion_severe",
                    "existence": "good" if sev == "good" else "problematic",
                },
                meta={"session_s": 30.0},
            )
        )
    analyzer = RootCauseAnalyzer(vps=("mobile",), select=select).fit(
        Dataset(instances)
    )
    return analyzer, features


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=2_000),
    st.booleans(),
    st.sampled_from(["homogeneous", "reordered", "ragged", "mixed"]),
)
def test_diagnose_batch_reports_identical_across_engines(seed, select, shape):
    analyzer, features = _mini_analyzer(seed % 5, select)
    rng = np.random.default_rng(seed)
    sessions = []
    for i in range(14):
        f = features()
        if shape == "ragged" and i % 3 == 0:
            f.pop("mobile_tcp_c2s_pkts", None)  # missing norm total
        if shape == "reordered" and i % 2 == 0:
            f = dict(reversed(list(f.items())))
        if shape == "mixed" and i % 2 == 0:
            sessions.append(f)  # bare dict, no session_s
            continue
        sessions.append(
            Instance(features=f, labels={}, meta={"session_s": 20.0 + i})
        )
    with predict_engine("object"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = analyzer.diagnose_batch(sessions)
    with predict_engine("compiled"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = analyzer.diagnose_batch(sessions)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]
    assert [r.to_json(sort_keys=True) for r in got] == [
        r.to_json(sort_keys=True) for r in ref
    ]


def test_diagnose_single_matches_batch_under_compiled():
    analyzer, features = _mini_analyzer(1, True)
    sessions = [
        Instance(features=features(), labels={}, meta={"session_s": 25.0})
        for _ in range(8)
    ]
    with predict_engine("compiled"):
        batch = analyzer.diagnose_batch(sessions)
        singles = [analyzer.diagnose(s) for s in sessions]
    assert [r.to_dict() for r in batch] == [r.to_dict() for r in singles]


def test_zero_fill_warning_parity_across_engines():
    """Both engines warn once, naming the missing total, over two batches."""
    for mode in ("object", "compiled"):
        analyzer, features = _mini_analyzer(2, False)
        rows = []
        for _ in range(5):
            f = features()
            f.pop("mobile_tcp_c2s_pkts")  # the _norm totals go missing
            rows.append(f)
        with predict_engine(mode):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                analyzer.diagnose_batch(rows)
                analyzer.diagnose_batch(rows)  # second batch must not re-warn
        zero_fill = [
            w for w in caught if "zero-filled" in str(w.message)
        ]
        assert len(zero_fill) == 1, mode
        assert "['mobile_tcp_c2s_pkts']" in str(zero_fill[0].message), mode


def test_plan_cache_invalidated_on_refit():
    analyzer, features = _mini_analyzer(3, True)
    rows = [features() for _ in range(4)]
    with predict_engine("compiled"):
        first = analyzer.diagnose_batch(rows)
        compiled = analyzer.compiled()
        assert analyzer.compiled() is compiled  # plan built once and kept
        analyzer.fit(
            Dataset(
                [
                    Instance(
                        features=dict(row),
                        labels={
                            "severity": "good",
                            "location": "good",
                            "exact": "good",
                            "existence": "good",
                        },
                        meta={"session_s": 30.0},
                    )
                    for row in [features() for _ in range(40)]
                ]
            )
        )
        refit = analyzer.compiled()
        assert refit is not compiled  # plan dropped with the refit
        assert set(refit.plan.names) == {
            name for names in analyzer.features.values() for name in names
        }
        second = analyzer.diagnose_batch(rows)
    assert len(first) == len(second)


# ------------------------------------------------- one plan, row-local


def _norm_analyzer():
    """An analyzer whose severity hangs on a constructed count norm."""
    rng = np.random.default_rng(11)
    instances = []
    for _ in range(60):
        pkts = float(rng.uniform(50, 100))
        ratio = float(rng.uniform(0, 1))
        sev = "good" if ratio < 0.5 else "severe"
        instances.append(
            Instance(
                features={
                    "mobile_tcp_c2s_pkts": pkts,
                    "mobile_tcp_c2s_retx_pkts": round(ratio * pkts, 3),
                    "mobile_tcp_flow_duration": float(rng.uniform(5, 30)),
                    "mobile_link_tx_rate": float(rng.uniform(1, 100)),
                    "mobile_hw_cpu_avg": float(rng.uniform(0, 1)),
                },
                labels={
                    "severity": sev,
                    "location": "good" if sev == "good" else "wan_severe",
                    "exact": "good" if sev == "good" else "wan_congestion_severe",
                    "existence": "good" if sev == "good" else "problematic",
                },
                meta={"session_s": 30.0},
            )
        )
    analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(Dataset(instances))
    assert "mobile_tcp_c2s_retx_pkts_norm" in analyzer.features["severity"]
    return analyzer


_SPECIALS = (np.nan, np.inf, -np.inf)


def _salted_row(rng, kind):
    """One session dict of the given shape, salted with NaN and +/-inf."""
    row = {
        "mobile_tcp_c2s_pkts": float(rng.uniform(50, 100)),
        "mobile_tcp_c2s_retx_pkts": float(rng.uniform(0, 100)),
        "mobile_tcp_flow_duration": float(rng.uniform(5, 30)),
        "mobile_link_tx_rate": float(rng.uniform(1, 150)),
        "mobile_hw_cpu_avg": float(rng.uniform(0, 1)),
    }
    for name in list(row):
        if rng.random() < 0.3:
            row[name] = float(_SPECIALS[int(rng.integers(0, 3))])
    if kind == "missing_total":
        row.pop("mobile_tcp_c2s_pkts")
    elif kind == "reordered":
        row = dict(reversed(list(row.items())))
    elif kind == "raw_constructed":
        # a raw value under a constructed name, without its generator
        row.pop("mobile_tcp_c2s_retx_pkts")
        row["mobile_tcp_c2s_retx_pkts_norm"] = 0.7
    return row


_KINDS = ("complete", "missing_total", "reordered", "raw_constructed")


def _same(a, b):
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_diagnose_equals_batch_of_one_on_nan_and_inf(seed):
    analyzer = _norm_analyzer()
    rng = np.random.default_rng(seed)
    row = _salted_row(rng, _KINDS[int(rng.integers(0, len(_KINDS)))])
    session_s = float(rng.choice([0.0, 20.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        single = analyzer.diagnose(row, session_s=session_s)
        batch = analyzer.diagnose_batch(
            [Instance(features=row, labels={}, meta={"session_s": session_s})]
        )[0]
        assert single.to_dict() == batch.to_dict()
        compiled = analyzer.compiled()
        columns = compiled.columns([row], [session_s])[0]
        for task in ("severity", "location", "exact"):
            label, path = analyzer.explain(row, task=task, session_s=session_s)
            assert label == getattr(single, task)
            for cond in path:
                column = compiled.plan.names.index(cond.feature)
                assert _same(cond.value, columns[column]), cond


def test_nan_rate_gives_nan_utilisation():
    analyzer, _features = _mini_analyzer(0, False)
    assert "mobile_link_tx_util" in analyzer.features["exact"]
    row = {"mobile_link_tx_rate": float("nan"), "mobile_tcp_rtt_avg": 10.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        vector = analyzer.compiled().task_rows(row, 0.0)["exact"]
        util = vector[analyzer.features["exact"].index("mobile_link_tx_util")]
        assert np.isnan(util)
        batch = analyzer.diagnose_batch([row])[0]
        assert analyzer.diagnose(row).to_dict() == batch.to_dict()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_batch_reports_are_row_local(seed):
    analyzer = _norm_analyzer()
    rng = np.random.default_rng(seed)
    rows = [
        _salted_row(rng, _KINDS[int(rng.integers(0, len(_KINDS)))])
        for _ in range(int(rng.integers(1, 9)))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        together = analyzer.diagnose_batch(rows)
        alone = [analyzer.diagnose_batch([row])[0] for row in rows]
    assert [r.to_dict() for r in together] == [r.to_dict() for r in alone]


def test_raw_constructed_name_cannot_flip_a_neighbour():
    """A raw ``*_norm`` value is ignored, so batching cannot change it."""
    analyzer = _norm_analyzer()
    bare = {"mobile_tcp_c2s_pkts": 80.0, "mobile_tcp_c2s_retx_pkts_norm": 0.7,
            "mobile_tcp_flow_duration": 10.0, "mobile_link_tx_rate": 5.0,
            "mobile_hw_cpu_avg": 0.5}
    full = {"mobile_tcp_c2s_pkts": 80.0, "mobile_tcp_c2s_retx_pkts": 8.0,
            "mobile_tcp_flow_duration": 10.0, "mobile_link_tx_rate": 5.0,
            "mobile_hw_cpu_avg": 0.5}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alone = analyzer.diagnose_batch([bare])[0]
        mixed = analyzer.diagnose_batch([full, bare])[1]
        assert alone.to_dict() == mixed.to_dict() == analyzer.diagnose(bare).to_dict()
    assert alone.severity == "good"  # computed norm 0/80, not the raw 0.7


# ------------------------------------------------- NB / SVM vectorization


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_gaussian_nb_scores_bitwise_equal_per_class_loop(seed):
    rng = np.random.default_rng(seed)
    n, f, k = int(rng.integers(2, 60)), int(rng.integers(1, 9)), int(rng.integers(1, 5))
    Xtr = rng.normal(0, 2, (n, f))
    ytr = rng.integers(0, k, n).astype(str)
    nb = GaussianNB().fit(Xtr, ytr)
    X = rng.normal(0, 2, (int(rng.integers(0, 50)), f))

    # the original per-class formulation, verbatim
    ref_scores = np.empty((len(X), len(nb.classes_)))
    for c in range(len(nb.classes_)):
        var = nb._vars[c]
        diff = X - nb._means[c]
        log_lik = -0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var)
        ref_scores[:, c] = log_lik.sum(axis=1) + nb._log_priors[c]
    ref = nb.classes_[np.argmax(ref_scores, axis=1)]
    assert np.array_equal(nb.predict(X), ref)


def test_linear_svm_margins_and_predict_one():
    rng = np.random.default_rng(0)
    Xtr = rng.normal(0, 1, (80, 6))
    ytr = rng.integers(0, 3, 80).astype(str)
    svm = LinearSVM(epochs=3).fit(Xtr, ytr)
    X = rng.normal(0, 1, (40, 6))
    scores = svm.decision_function(X)
    ref = (X - svm._mu) / svm._sigma @ svm._weights.T + svm._bias
    assert np.array_equal(scores, ref)
    assert np.array_equal(svm.predict(X), svm.classes_[np.argmax(ref, axis=1)])
    assert svm.predict_one(X[0]) == svm.predict(X[:1])[0]
    nb = GaussianNB().fit(Xtr, ytr)
    assert nb.predict_one(X[0]) == nb.predict(X[:1])[0]


# ----------------------------------------------------------- FCBF counting


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_su_bincount_counting_equals_sorted_unique(seed):
    from repro.ml.fcbf import _joint_entropy, symmetrical_uncertainty

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    x = rng.integers(-3, 9, n)
    y = rng.integers(0, 6, n)

    def entropy_ref(v):
        _, counts = np.unique(v, return_counts=True)
        p = counts / counts.sum()
        return float(-(p * np.log2(p)).sum())

    hx, hy = entropy_ref(x), entropy_ref(y)
    if hx == 0.0 and hy == 0.0:
        expected = 1.0
    elif hx == 0.0 or hy == 0.0:
        expected = 0.0
    else:
        joint = x.astype(np.int64) * (int(y.max()) + 1) + y.astype(np.int64)
        expected = max(0.0, 2.0 * (hx + hy - entropy_ref(joint)) / (hx + hy))
    assert symmetrical_uncertainty(x, y) == expected
    assert _joint_entropy(x, y) == entropy_ref(
        x.astype(np.int64) * (int(y.max()) + 1) + y.astype(np.int64)
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1_000))
def test_fcbf_selection_matches_per_pair_reference(seed):
    from repro.ml.fcbf import fcbf, symmetrical_uncertainty

    rng = np.random.default_rng(seed)
    n, f = 80, 8
    base = rng.integers(0, 3, (n, 3))
    Xd = np.column_stack(
        [base[:, int(rng.integers(0, 3))] + rng.integers(0, 2, n) for _ in range(f)]
    )
    y = base[:, 0] * 2 + base[:, 1]

    _, y_codes = np.unique(y, return_inverse=True)
    su_class = np.array(
        [symmetrical_uncertainty(Xd[:, j], y_codes) for j in range(f)]
    )
    candidates = [j for j in range(f) if su_class[j] > 0.0]
    candidates.sort(key=lambda j: -su_class[j])
    expected, removed = [], set()
    for i, fj in enumerate(candidates):
        if fj in removed:
            continue
        expected.append(fj)
        for fk in candidates[i + 1 :]:
            if fk in removed:
                continue
            if symmetrical_uncertainty(Xd[:, fk], Xd[:, fj]) >= su_class[fk]:
                removed.add(fk)

    selected, su_map = fcbf(Xd, y, delta=0.0, prediscretized=True)
    assert selected == expected
    assert all(su_map[str(j)] == su_class[j] for j in range(f))
