"""Figure 4 / Section 5.3: identifying the exact problem.

Paper accuracies: mobile 88.18%, router 85.74%, server 84.2%, combined
88.95%.  Characteristic blind spots: router/server cannot see mobile load
(no CPU/memory) and are weak on mild interference (no RSSI); the mobile VP
sees local problems best.
"""

from repro.experiments.exact import run_exact


def _class_recall(result, vp, prefix):
    """Pooled recall of all labels starting with ``prefix`` for ``vp``."""
    cm = result.results[vp].confusion
    hits = total = 0
    for label in cm.labels:
        if not str(label).startswith(prefix):
            continue
        i = cm._index[label]
        total += cm.matrix[i].sum()
        hits += sum(
            cm.matrix[i, cm._index[p]]
            for p in cm.labels
            if str(p).startswith(prefix)
        )
    return hits / total if total else None


def test_fig4_exact_problem(controlled, report):
    result = run_exact(controlled)
    report("fig4_exact_problem", result.to_text())

    acc = result.accuracies
    for name in ("mobile", "router", "server", "combined"):
        assert acc[name] > 0.65, f"{name}: {acc[name]:.2f}"

    # The mobile VP dominates router/server on device-local problems.
    mobile_load_mobile = _class_recall(result, "mobile", "mobile_load")
    mobile_load_router = _class_recall(result, "router", "mobile_load")
    mobile_load_server = _class_recall(result, "server", "mobile_load")
    if mobile_load_mobile is not None:
        assert mobile_load_mobile >= max(
            mobile_load_router or 0.0, mobile_load_server or 0.0
        ) - 0.05, (mobile_load_mobile, mobile_load_router, mobile_load_server)


def test_fig4_mobile_matches_combined(controlled):
    """The paper's takeaway: the phone alone nearly matches all three VPs."""
    result = run_exact(controlled, with_feature_table=False)
    assert result.accuracies["mobile"] > result.accuracies["combined"] - 0.08
