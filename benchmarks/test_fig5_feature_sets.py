"""Figure 5 / Section 5.4: accuracy per feature set.

Paper ordering: RSSI-only and hardware-only < 35%, utilisation ~55%,
delay ~70%, all features ~75%, FS+FC > 80%.  The *ordering* (single
narrow families < delay < everything < the engineered pipeline) is the
reproduced shape.
"""

from repro.experiments.feature_sets import run_feature_sets, run_fc_fs_ablation


def test_fig5_feature_sets(controlled, report):
    result = run_feature_sets(controlled)
    report("fig5_feature_sets", result.to_text())

    acc = result.accuracies
    # RSSI alone is the weakest input, as in the paper.
    assert acc["rssi"] == min(acc.values()), acc
    # Narrow single-family inputs are far weaker than the full pipeline.
    assert acc["rssi"] < acc["fs_fc"] - 0.1
    assert acc["hw"] < acc["all"] - 0.03
    assert acc["utilization"] < acc["delay"] + 0.02
    # Delay features alone already carry a lot of signal.
    assert acc["delay"] > acc["rssi"] + 0.1
    assert acc["delay"] < acc["all"] + 0.02
    # The engineered pipeline is at least on par with raw everything,
    # using an order of magnitude fewer features.
    assert acc["fs_fc"] >= acc["all"] - 0.04
    nfeat_fs = len(result.results["fs_fc"].selected_features)
    nfeat_all = len(result.results["all"].selected_features)
    assert nfeat_fs < nfeat_all / 5


def test_ablation_fc_fs(controlled, report):
    result = run_fc_fs_ablation(controlled)
    report("ablation_fc_fs", result.to_text())
    acc = result.accuracies
    # Section 5.4: FS+FC together do not hurt, and dramatically shrink the
    # model's input space.
    assert acc["fc_fs"] >= acc["raw"] - 0.04
    nfeat_full = len(result.results["fc_fs"].selected_features)
    nfeat_raw = len(result.results["raw"].selected_features)
    assert nfeat_full < nfeat_raw / 4
