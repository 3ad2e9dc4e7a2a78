"""Compiled tree inference: structure-of-arrays plans for C4.5 trees.

The paper chose C4.5 over SVM/NB because "decision trees are fast to
evaluate" — but a node-object traversal still pays Python prices per
node visit.  This module flattens a fitted tree into five parallel
numpy arrays (one entry per node, preorder)::

    feature[]     int32    split feature column (0 for leaves)
    threshold[]   float64  split threshold (<= goes left)
    left[]        int32    left-child node index (self for leaves)
    right[]       int32    right-child node index (self for leaves)
    leaf_label[]  int32    majority-class code at the node

and evaluates a whole batch with an iterative vectorized descent: an
explicit worklist of ``(node, row indices)`` pairs partitions each
node's rows with one numpy comparison::

    mask = X[rows, feature[node]] <= threshold[node]

and sends ``rows[mask]`` left and the rest right.  At fleet batch sizes
rows vastly outnumber nodes, so the loop runs once per *visited node*
while every comparison stays in C — cheaper than a level-synchronous
sweep, which re-gathers per-row node state on every level.  Comparison
semantics are numpy's own ``<=`` on float64, so NaN rows fall right
exactly as the object-path per-node comparison does, and predictions
are bit-identical to the node-object reference traversal kept in
``tests/oracles.py`` (pinned by the Hypothesis differential suite in
``tests/ml/test_compiled_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np


@dataclass
class TreePlan:
    """A fitted decision tree flattened to parallel arrays (preorder)."""

    feature: np.ndarray  # int32 (n_nodes,)
    threshold: np.ndarray  # float64 (n_nodes,)
    left: np.ndarray  # int32 (n_nodes,)
    right: np.ndarray  # int32 (n_nodes,)
    leaf_label: np.ndarray  # int32 (n_nodes,)
    is_leaf: np.ndarray  # bool (n_nodes,)
    #: scalar-descent mirrors (plain Python lists; built once per plan)
    _py: List[List[object]] = field(default_factory=list, repr=False)

    @classmethod
    def from_root(cls, root: object) -> "TreePlan":
        """Flatten a ``_Node`` tree into a plan (preorder numbering).

        Leaves keep ``feature = 0`` and point ``left``/``right`` at
        themselves, so a vectorized step is a no-op for any row already
        parked on a leaf — no masking special cases.
        """
        features: List[int] = []
        thresholds: List[float] = []
        lefts: List[int] = []
        rights: List[int] = []
        labels: List[int] = []
        leaves: List[bool] = []

        # Iterative preorder: parent indices are assigned before children,
        # then child slots are patched once the child index is known.
        stack = [(root, -1, False)]  # (node, parent index, is_right_child)
        while stack:
            node, parent, is_right = stack.pop()
            index = len(features)
            if parent >= 0:
                (rights if is_right else lefts)[parent] = index
            leaf = node.feature is None
            features.append(0 if leaf else int(node.feature))
            thresholds.append(float(node.threshold))
            lefts.append(index)
            rights.append(index)
            labels.append(int(node.prediction))
            leaves.append(leaf)
            if not leaf:
                # push right first so the left child is numbered next
                stack.append((node.right, index, True))
                stack.append((node.left, index, False))
        return cls(
            feature=np.asarray(features, dtype=np.int32),
            threshold=np.asarray(thresholds, dtype=np.float64),
            left=np.asarray(lefts, dtype=np.int32),
            right=np.asarray(rights, dtype=np.int32),
            leaf_label=np.asarray(labels, dtype=np.int32),
            is_leaf=np.asarray(leaves, dtype=bool),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    # ------------------------------------------------------------- batch

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        """Class codes for every row of ``X`` (float64, shape (n, f)).

        Worklist partition descent: each visited node splits its row set
        with one vectorized comparison.  NaN feature values compare
        False against any threshold and fall to the right child,
        matching the object traversal exactly.
        """
        n = X.shape[0]
        out = np.empty(n, dtype=np.int32)
        if not n:
            return out
        feature = self.feature
        threshold = self.threshold
        left = self.left
        right = self.right
        is_leaf = self.is_leaf
        leaf_label = self.leaf_label
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            # run the left spine inline; queue right splits as they peel off
            while not is_leaf[node] and idx.size:
                mask = X[idx, feature[node]] <= threshold[node]
                right_idx = idx[~mask]
                if right_idx.size:
                    stack.append((right[node], right_idx))
                idx = idx[mask]
                node = left[node]
            if idx.size:
                out[idx] = leaf_label[node]
        return out

    # ------------------------------------------------------------ scalar

    def _scalar_tables(self) -> List[List[object]]:
        if not self._py:
            self._py = [
                self.feature.tolist(),
                self.threshold.tolist(),
                self.left.tolist(),
                self.right.tolist(),
                self.leaf_label.tolist(),
                self.is_leaf.tolist(),
            ]
        return self._py

    def predict_code_one(self, row: Sequence[float]) -> int:
        """Scalar descent for one row — no array allocation at all.

        ``row`` is any indexable of numbers (the diagnosis path hands a
        plain Python list).  Comparisons run on Python floats, which are
        IEEE-754 doubles like numpy's, so the routing — including the
        NaN-goes-right rule — is identical to :meth:`predict_codes`.
        """
        feature, threshold, left, right, label, is_leaf = self._scalar_tables()
        node = 0
        while not is_leaf[node]:
            node = (
                left[node]
                if float(row[feature[node]]) <= threshold[node]
                else right[node]
            )
        return label[node]
