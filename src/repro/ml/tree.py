"""C4.5 decision tree (the paper's Weka J48 classifier).

Implements the parts of Quinlan's C4.5 that matter for this problem:

* binary splits on continuous attributes at class-boundary midpoints,
* split choice by **gain ratio** among candidates with at least average
  information gain (Quinlan's guard against high-arity bias),
* minimum instances per leaf (J48 default 2),
* **pessimistic error pruning** with the C4.5 confidence factor (default
  0.25), using the Wilson upper confidence bound on the leaf error rate.

Split search is vectorised with numpy so that training on the full
354-feature dataset under 10-fold cross-validation stays fast.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.compiled import TreePlan

# z-score for the one-sided CF=0.25 bound, as in C4.5/J48.
_Z_BY_CF = {0.25: 0.6744897501960817, 0.1: 1.2815515655446004, 0.5: 0.0}


def _upper_error(n: float, e: float, z: float) -> float:
    """Wilson upper bound on the error *rate* of a leaf (C4.5's U_cf)."""
    if n <= 0:
        return 0.0
    f = e / n
    num = f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
    return num / (1.0 + z * z / n)


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "counts", "prediction", "n")

    def __init__(self, counts: np.ndarray) -> None:
        self.feature: Optional[int] = None
        self.threshold = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.counts = counts
        self.n = int(counts.sum())
        self.prediction = int(np.argmax(counts))

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


class C45Tree:
    """Gain-ratio decision tree with pessimistic pruning.

    Parameters mirror Weka's J48: ``min_leaf`` (-M), ``cf`` (-C) and an
    optional depth cap.  ``fit`` takes a float matrix and any label array;
    labels are mapped to internal codes and restored by ``predict``.
    """

    def __init__(
        self,
        min_leaf: int = 2,
        cf: float = 0.25,
        max_depth: Optional[int] = None,
        prune: bool = True,
    ) -> None:
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.min_leaf = min_leaf
        self.cf = cf
        self.max_depth = max_depth
        self.prune = prune
        self._z = _Z_BY_CF.get(cf, 0.6744897501960817)
        self.classes_: Optional[np.ndarray] = None
        self.root: Optional[_Node] = None
        self.feature_names: Optional[List[str]] = None
        self.n_features = 0
        self._importance: Optional[np.ndarray] = None
        self._plan: Optional[TreePlan] = None

    # ------------------------------------------------------------------ fit

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: Optional[Sequence[str]] = None,
    ) -> "C45Tree":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        self.classes_, y_codes = np.unique(np.asarray(y), return_inverse=True)
        self.n_features = X.shape[1]
        self.feature_names = (
            list(feature_names) if feature_names is not None else None
        )
        self._importance = np.zeros(self.n_features)
        k = len(self.classes_)
        one_hot = np.zeros((len(y_codes), k), dtype=np.int64)
        one_hot[np.arange(len(y_codes)), y_codes] = 1
        self.root = self._build(X, y_codes, one_hot, depth=0)
        if self.prune:
            self._prune(self.root)
        self._plan = None  # recompiled lazily against the new structure
        return self

    def _build(
        self, X: np.ndarray, y: np.ndarray, one_hot: np.ndarray, depth: int
    ) -> _Node:
        counts = one_hot.sum(axis=0)
        node = _Node(counts)
        if (
            node.n < 2 * self.min_leaf
            or (counts > 0).sum() <= 1
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(X, one_hot)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_leaf or (~mask).sum() < self.min_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        self._importance[feature] += gain * node.n
        node.left = self._build(X[mask], y[mask], one_hot[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], one_hot[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, one_hot: np.ndarray
    ) -> Optional[Tuple[int, float, float]]:
        n, _k = one_hot.shape
        parent_entropy = _entropy(one_hot.sum(axis=0))
        if parent_entropy == 0.0:
            return None
        best = None  # (ratio, feature, threshold, gain)
        candidates = []  # (gain, ratio, feature, threshold)
        for j in range(self.n_features):
            col = X[:, j]
            order = np.argsort(col, kind="mergesort")
            vals = col[order]
            hot = one_hot[order]
            change = np.nonzero(vals[:-1] != vals[1:])[0]
            if len(change) == 0:
                continue
            left_counts = np.cumsum(hot, axis=0)[change]
            total = one_hot.sum(axis=0)
            right_counts = total - left_counts
            ln = change + 1
            rn = n - ln
            valid = (ln >= self.min_leaf) & (rn >= self.min_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                pl = left_counts / ln[:, None]
                pr = right_counts / rn[:, None]
                el = -(pl * np.where(pl > 0, np.log2(np.where(pl > 0, pl, 1)), 0)).sum(axis=1)
                er = -(pr * np.where(pr > 0, np.log2(np.where(pr > 0, pr, 1)), 0)).sum(axis=1)
            weighted = (ln * el + rn * er) / n
            gains = parent_entropy - weighted
            gains[~valid] = -1.0
            idx = int(np.argmax(gains))
            gain = float(gains[idx])
            if gain <= 1e-12:
                continue
            p = ln[idx] / n
            split_info = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
            ratio = gain / max(split_info, 1e-9)
            threshold = (vals[change[idx]] + vals[change[idx] + 1]) / 2.0
            candidates.append((gain, ratio, j, threshold))
        if not candidates:
            return None
        # C4.5: choose by gain ratio among splits with >= average gain.
        avg_gain = sum(c[0] for c in candidates) / len(candidates)
        eligible = [c for c in candidates if c[0] >= avg_gain - 1e-12]
        gain, _ratio, feature, threshold = max(
            eligible, key=lambda c: (c[1], c[0])
        )
        return feature, threshold, gain

    # ---------------------------------------------------------------- prune

    def _prune(self, node: _Node) -> float:
        """Post-order pessimistic pruning; returns estimated error count."""
        leaf_err = _upper_error(
            node.n, node.n - node.counts[node.prediction], self._z
        ) * node.n
        if node.is_leaf:
            return leaf_err
        subtree_err = self._prune(node.left) + self._prune(node.right)
        if leaf_err <= subtree_err + 0.1:
            node.feature = None
            node.left = None
            node.right = None
            return leaf_err
        return subtree_err

    # -------------------------------------------------------------- predict

    def compiled_plan(self) -> TreePlan:
        """The structure-of-arrays plan for this tree (compiled lazily)."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if self._plan is None:
            self._plan = TreePlan.from_root(self.root)
        return self._plan

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized batch prediction.

        Evaluates the compiled structure-of-arrays plan
        (:meth:`compiled_plan`): one iterative numpy descent step per
        tree level over the still-interior rows.  Bit-identical to the
        node-object traversal kept as a test oracle in tests/oracles.py
        (tests/ml/test_compiled_equivalence.py).
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        return self.classes_[self.compiled_plan().predict_codes(X)]

    def predict_one(self, row: np.ndarray) -> object:
        """One row, without the batch machinery.

        A scalar descent over the plan arrays -- no (1, f) matrix, no
        index bookkeeping -- which is what the per-session ``diagnose``
        path calls in a loop.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self.classes_[self.compiled_plan().predict_code_one(row)]

    # ----------------------------------------------------------- inspection

    @property
    def n_nodes(self) -> int:
        def count(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    @property
    def depth(self) -> int:
        def d(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self.root)

    def feature_importance(self) -> Dict[str, float]:
        """Total (gain x instances) credited to each feature."""
        if self._importance is None:
            raise RuntimeError("tree is not fitted")
        total = self._importance.sum() or 1.0
        names = self.feature_names or [str(j) for j in range(self.n_features)]
        return {
            names[j]: float(self._importance[j] / total)
            for j in range(self.n_features)
            if self._importance[j] > 0
        }

    def to_text(self, max_depth: int = 6) -> str:
        """Human-readable rendering (the paper values interpretability)."""
        names = self.feature_names or [f"x{j}" for j in range(self.n_features)]
        lines: List[str] = []

        def walk(node: _Node, indent: str, depth: int) -> None:
            if node.is_leaf or depth >= max_depth:
                label = self.classes_[node.prediction]
                lines.append(f"{indent}-> {label} ({node.n})")
                return
            lines.append(f"{indent}{names[node.feature]} <= {node.threshold:.4g}:")
            walk(node.left, indent + "  ", depth + 1)
            lines.append(f"{indent}{names[node.feature]} > {node.threshold:.4g}:")
            walk(node.right, indent + "  ", depth + 1)

        walk(self.root, "", 0)
        return "\n".join(lines)
