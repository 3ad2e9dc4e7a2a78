"""Machine-learning stack (the paper's Weka J48 / FCBF equivalents).

Everything is implemented from scratch on numpy:

* :mod:`repro.ml.tree` -- C4.5 decision tree (gain ratio, binary splits on
  continuous attributes, pessimistic-error pruning), the paper's J48.
* :mod:`repro.ml.discretize` -- Fayyad-Irani MDL entropy discretisation,
  needed by the information-theoretic feature selection.
* :mod:`repro.ml.fcbf` -- the Fast Correlation-Based Filter of Yu & Liu,
  which the paper found "most efficient in identifying a minimal set of
  features with high predictive power" (Section 3.2).
* :mod:`repro.ml.naive_bayes`, :mod:`repro.ml.svm` -- the baselines the
  paper compared against (and beat) with the decision tree.
* :mod:`repro.ml.cross_validation` -- stratified 10-fold CV, the paper's
  evaluation protocol.
* :mod:`repro.ml.metrics` -- accuracy / precision / recall / confusion.
* :mod:`repro.ml.ranking` -- per-label feature rankings (Table 4).
"""

from typing import TYPE_CHECKING, Dict, Tuple

from repro._exports import lazy_exports
from repro.ml.fcbf import fcbf, symmetrical_uncertainty

if TYPE_CHECKING:
    from repro.ml.cross_validation import cross_validate, stratified_kfold
    from repro.ml.discretize import apply_cuts, mdl_discretize
    from repro.ml.export import tree_from_dict, tree_to_dict, tree_to_dot
    from repro.ml.metrics import ConfusionMatrix
    from repro.ml.naive_bayes import GaussianNB
    from repro.ml.ranking import info_gain_ranking, per_label_ranking
    from repro.ml.rules import (
        decision_path,
        explain_prediction,
        extract_rules,
        render_rule,
    )
    from repro.ml.svm import LinearSVM
    from repro.ml.tree import C45Tree

#: module -> the public names it defines, each imported on first access
#: (PEP 562), so importing one submodule loads only what it uses.
#: ``fcbf`` and ``symmetrical_uncertainty`` are imported above instead:
#: ``fcbf`` is also the name of its submodule, and importing a submodule
#: binds it on the package, so a lazy ``fcbf`` would become the module.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.ml.cross_validation": ("cross_validate", "stratified_kfold"),
    "repro.ml.discretize": ("mdl_discretize", "apply_cuts"),
    "repro.ml.metrics": ("ConfusionMatrix",),
    "repro.ml.naive_bayes": ("GaussianNB",),
    "repro.ml.ranking": ("info_gain_ranking", "per_label_ranking"),
    "repro.ml.rules": (
        "decision_path", "explain_prediction", "extract_rules", "render_rule"),
    "repro.ml.svm": ("LinearSVM",),
    "repro.ml.export": ("tree_from_dict", "tree_to_dict", "tree_to_dot"),
    "repro.ml.tree": ("C45Tree",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, eager=("fcbf", "symmetrical_uncertainty"))
