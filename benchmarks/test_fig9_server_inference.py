"""Figure 9: the server VP's device-state inferences vs ground truth.

The paper shows that sessions the *server* flags as "mobile load" have a
genuinely higher device-CPU distribution, and sessions it flags as "low
RSSI" have genuinely lower signal -- although the server only ever sees
TCP behaviour.  We reproduce the separation of the two distributions.
"""

import math

from repro.experiments.wild import run_server_inference


def test_fig9_server_inference(controlled, wild, report):
    result = run_server_inference(controlled, wild)
    report("fig9_server_inference", result.to_text())

    # CPU: flagged sessions show higher true device CPU ...
    if result.cpu_flagged:
        assert result.cpu_separation > 0.0, result.to_text()
    # ... RSSI: flagged sessions show lower true signal.
    if result.rssi_flagged:
        assert result.rssi_separation < 0.0, result.to_text()
    # The unflagged population is always present and well-defined.
    assert len(result.cpu_unflagged) > 0
    assert not math.isnan(result.cpu_unflagged[0])
