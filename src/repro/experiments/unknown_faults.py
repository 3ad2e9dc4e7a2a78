"""Quantifying the unknown-fault limitation (Section 7).

Sessions are degraded by faults the model has never seen (DNS
misconfiguration, middlebox interference).  Two quantities matter:

* **detection** -- the fraction of genuinely-degraded unknown-fault
  sessions the model still flags as problematic (anomalous features should
  trip the severity model even without the right class);
* **mis-attribution** -- what the exact-cause model calls them, which is
  necessarily one of the trained labels: the paper's documented failure
  mode, made measurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.construction import FeatureConstructor
from repro.core.dataset import Dataset
from repro.core.selection import FeatureSelector
from repro.core.vantage import ALL_VPS, features_for_vps
from repro.experiments.common import session_rows
from repro.faults.unknown import DnsMisconfiguration, MiddleboxInterference
from repro.ml.tree import C45Tree
from repro.testbed.testbed import Testbed, TestbedConfig
from repro.video.catalog import VideoCatalog

UNKNOWN_FAULTS = {
    "dns_misconfiguration": DnsMisconfiguration,
    "middlebox_interference": MiddleboxInterference,
}


@dataclass
class UnknownFaultResult:
    n_sessions: int = 0
    n_degraded: int = 0
    detected_of_degraded: int = 0
    attributions: Dict[str, int] = field(default_factory=dict)
    sessions: List[Tuple[str, str, float, str]] = field(default_factory=list)

    @property
    def detection_rate(self) -> float:
        if self.n_degraded == 0:
            return 0.0
        return self.detected_of_degraded / self.n_degraded

    def to_text(self) -> str:
        lines = ["== Unknown faults (Section 7 limitation) =="]
        lines.append(f"  unknown-fault sessions: {self.n_sessions} "
                     f"({self.n_degraded} with degraded QoE)")
        lines.append(f"  degraded sessions flagged problematic: "
                     f"{self.detection_rate * 100:.0f}%")
        lines.append("  attributed (necessarily wrong) causes:")
        for cause, count in sorted(self.attributions.items(), key=lambda x: -x[1]):
            lines.append(f"    {cause:<26} {count}")
        return "\n".join(lines)


def run_unknown_faults(
    train: Dataset,
    n_sessions: int = 16,
    seed: int = 777,
) -> UnknownFaultResult:
    """Train on the 7 known faults, confront the model with 2 unknown ones."""
    constructor = FeatureConstructor().fit(train)
    train_c = constructor.transform(train)
    names = features_for_vps(train_c.feature_names, ALL_VPS)
    selector = FeatureSelector().fit(train_c, "exact", feature_names=names)
    names = selector.selected or names
    exact_model = C45Tree().fit(
        train_c.to_matrix(names), train_c.labels("exact"), feature_names=names
    )
    sev_selector = FeatureSelector().fit(train_c, "severity", feature_names=names)
    sev_names = sev_selector.selected or names
    severity_model = C45Tree().fit(
        train_c.to_matrix(sev_names), train_c.labels("severity"),
        feature_names=sev_names,
    )

    catalog = VideoCatalog(size=40, duration_range=(18.0, 40.0), seed=seed)
    rng = random.Random(seed)
    result = UnknownFaultResult()
    fault_names = list(UNKNOWN_FAULTS)
    for index in range(n_sessions):
        fault_name = fault_names[index % len(fault_names)]
        severity = "mild" if index % 4 < 2 else "severe"
        instance_seed = rng.randrange(2**31)
        scenario_rng = random.Random(instance_seed)
        bed = Testbed(TestbedConfig(seed=instance_seed))
        fault = UNKNOWN_FAULTS[fault_name](severity, scenario_rng)
        record = bed.run_video_session(catalog.pick(scenario_rng), fault=fault)
        bed.shutdown()

        sev_row, exact_row = session_rows(constructor, record, sev_names, names)
        predicted_sev = str(severity_model.predict_one(sev_row))
        predicted_cause = str(exact_model.predict_one(exact_row))

        result.n_sessions += 1
        degraded = record.severity != "good"
        if degraded:
            result.n_degraded += 1
            if predicted_sev != "good" or predicted_cause != "good":
                result.detected_of_degraded += 1
            cause = (predicted_cause.rsplit("_", 1)[0]
                     if predicted_cause != "good" else "good")
            result.attributions[cause] = result.attributions.get(cause, 0) + 1
        result.sessions.append(
            (fault_name, severity, record.mos, predicted_cause)
        )
    return result
