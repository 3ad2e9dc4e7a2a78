"""Section 4 / Section 6 dataset composition vs the paper.

Paper datasets: controlled 3919 (3125 good / 450 mild / 344 severe),
real-world induced 2619 (1962 / 463 / 194), wild 3495 (2940 good / 555
problematic).  Ours are scaled down but must keep the same character:
good-majority, mild and severe both present, every fault class populated.
"""


def _describe(name, ds):
    sev = ds.label_counts("severity")
    lines = [f"{name}: {len(ds)} instances, {len(ds.feature_names)} features"]
    lines.append(f"  severity: {sev}")
    lines.append(f"  exact:    {ds.label_counts('exact')}")
    return "\n".join(lines), sev


def test_dataset_composition(controlled, realworld, wild, report):
    blocks = []
    for name, ds in (("controlled", controlled),
                     ("realworld", realworld), ("wild", wild)):
        text, _sev = _describe(name, ds)
        blocks.append(text)
    report("dataset_composition", "\n".join(blocks))

    for name, ds in (("controlled", controlled), ("realworld", realworld),
                     ("wild", wild)):
        sev = ds.label_counts("severity")
        assert sev.get("good", 0) > len(ds) * 0.4, (name, sev)
        assert sev.get("mild", 0) > 0 and sev.get("severe", 0) > 0, (name, sev)
    # The controlled campaign populates every fault class (Figure 4's rows).
    exact = controlled.label_counts("exact")
    populated = {label.rsplit("_", 1)[0] for label in exact if label != "good"}
    assert len(populated) == 7, exact
    # The feature space approaches the paper's 354 metrics.
    assert len(controlled.feature_names) > 300
