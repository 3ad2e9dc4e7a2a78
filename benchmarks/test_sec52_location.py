"""Section 5.2: locating the problem (device / LAN / WAN).

Paper: each entity can tell whether the fault is in its own segment; the
server VP localises LAN problems nearly as well as the router, leaning on
the same features (RTT, first packet arrival, retransmissions).
"""

from repro.experiments.location import run_location


def test_sec52_location(controlled, report):
    result = run_location(controlled)
    report("sec52_location", result.to_text())

    acc = result.accuracies
    for name in ("mobile", "router", "server", "combined"):
        assert acc[name] > 0.65, f"{name}: {acc[name]:.2f}"
    # The server VP is not blind to LAN problems (the paper's surprise):
    lan = result.location_recall("lan")
    assert lan["server"] > 0.3
    # and its top LAN features are transport-timing ones.
    server_features = [name for name, _ in result.lan_rankings["server"]]
    assert any(
        "rtt" in n or "first_payload" in n or "retx" in n or "iat" in n
        for n in server_features
    ), server_features
