"""Figure 8 / Section 6.2: problem detection fully in the wild.

3G-dominant sessions with no induced faults; only good/problematic ground
truth exists; the router VP is unavailable on cellular paths, so the
evaluated combinations are mobile, server and mobile+server.  Paper: high
accuracy on good sessions, some loss on problematic ones, mobile > server,
combination best.
"""

from repro.experiments.wild import run_wild_detection


def test_fig8_wild_detection(controlled, wild, report):
    result = run_wild_detection(controlled, wild)
    report("fig8_wild_detection", result.to_text())

    acc = result.accuracies
    assert set(acc) == {"mobile", "server", "mobile+server"}
    assert acc["mobile"] > 0.65, acc
    assert acc["mobile+server"] > 0.65, acc
    bars = result.bars()
    # Healthy sessions stay easy to recognise in the wild.
    assert bars["good"]["mobile"]["recall"] > 0.75
    # Problematic sessions are detected far above chance but with some
    # loss versus the lab (the paper's observation).
    assert bars["problematic"]["mobile"]["recall"] > 0.35
