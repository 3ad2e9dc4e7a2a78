"""Table 4: top-3 features per problem type per vantage point.

Paper shape: CPU/memory dominate mobile-load detection at the mobile VP
(router/server fall back to RTT); RSSI dominates the wireless faults at
the mobile VP; network faults rank utilisation / RTT / first-packet-
arrival / counters.
"""

from repro.experiments.exact import feature_ranking_table


def test_table4_feature_ranking(controlled, report):
    table = feature_ranking_table(controlled)

    lines = ["== Table 4: top features per problem per VP =="]
    for label, per_vp in sorted(table.items()):
        lines.append(f"{label}:")
        for vp, ranked in per_vp.items():
            names = ", ".join(f"{n} ({g:.2f})" for n, g in ranked)
            lines.append(f"  {vp[0].upper()}: {names}")
    report("table4_feature_ranking", "\n".join(lines))

    # Mobile VP ranks hardware metrics highest for mobile load.
    mobile_load = [n for n, _ in table["mobile_load"]["mobile"]]
    assert any("_hw_" in n for n in mobile_load), mobile_load
    # Router/server have no hardware view of the phone.
    for vp in ("router", "server"):
        ranked = [n for n, _ in table["mobile_load"][vp]]
        assert not any("mobile_hw" in n for n in ranked)
    # RSSI leads low-RSSI detection at the mobile VP.
    low_rssi = [n for n, _ in table["low_rssi"]["mobile"]]
    assert any("rssi" in n or "radio" in n for n in low_rssi), low_rssi
