"""The paper's contribution: the multi-VP root-cause-analysis framework.

* :mod:`repro.core.dataset` -- labelled instances and matrix assembly.
* :mod:`repro.core.vantage` -- vantage-point scoping of the feature space.
* :mod:`repro.core.construction` -- Feature Construction (Section 3.2):
  session-total normalisation, NIC utilisation, duration normalisation.
* :mod:`repro.core.selection` -- Feature Selection via FCBF (Table 1).
* :mod:`repro.core.labeling` -- MOS-based labels for the three tasks
  (existence / location / exact cause).
* :mod:`repro.core.evaluation` -- the Section 5 evaluation protocol
  (10-fold CV per VP combination) and train-here/test-there transfer.
* :mod:`repro.core.diagnosis` -- :class:`RootCauseAnalyzer`, the public
  diagnose-one-session API.
"""

from typing import TYPE_CHECKING, Dict, Tuple

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.core.construction import FeatureConstructor
    from repro.core.dataset import Dataset, Instance
    from repro.core.diagnosis import DiagnosisReport, RootCauseAnalyzer
    from repro.core.drift import DriftMonitor, DriftReport
    from repro.core.evaluation import EvalResult, evaluate_cv, evaluate_transfer
    from repro.core.labeling import LABEL_KINDS, label_array
    from repro.core.report import FleetReport, fleet_report
    from repro.core.selection import FeatureSelector
    from repro.core.vantage import ALL_VPS, features_for_vps, vp_of_feature

#: module -> the public names it defines, each imported on first access
#: (PEP 562), so importing one submodule loads only what it uses.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.core.construction": ("FeatureConstructor",),
    "repro.core.dataset": ("Dataset", "Instance"),
    "repro.core.diagnosis": ("DiagnosisReport", "RootCauseAnalyzer"),
    "repro.core.drift": ("DriftMonitor", "DriftReport"),
    "repro.core.report": ("FleetReport", "fleet_report"),
    "repro.core.evaluation": (
        "EvalResult", "evaluate_cv", "evaluate_transfer"),
    "repro.core.labeling": ("LABEL_KINDS", "label_array"),
    "repro.core.selection": ("FeatureSelector",),
    "repro.core.vantage": ("ALL_VPS", "features_for_vps", "vp_of_feature"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
