"""A single regression tree grown leaf-wise on gradient statistics.

Each boosting round fits one of these trees to the first- and
second-order gradients of the loss (Newton boosting).  Growth is
leaf-wise with a maximum leaf count — the paper's combiner uses
"200 trees, 12 leaves per tree" (Section 5.1) — choosing at every step
the leaf whose best histogram split yields the largest gain:

    gain = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)

Leaf values are the Newton step ``−G/(H+λ)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["SplitInfo", "TreeNode", "RegressionTree"]

_REG_LAMBDA = 1.0  # λ in the gain and Newton-step formulas above
_MIN_GAIN = 1.0e-6  # a split must improve the objective by more than this


@dataclass
class SplitInfo:
    """Best split found for one node, or None-equivalent when invalid."""

    feature: int
    threshold_bin: int  # rows with bin <= threshold go left
    gain: float
    left_rows: np.ndarray
    right_rows: np.ndarray


@dataclass
class TreeNode:
    """One node of the fitted tree (internal or leaf)."""

    node_id: int
    value: float = 0.0
    feature: int = -1
    threshold_bin: int = -1
    left: int = -1
    right: int = -1
    gain: float = 0.0
    num_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


class RegressionTree:
    """Histogram-based regression tree with leaf-wise growth."""

    def __init__(self, max_leaves: int = 12, min_samples_leaf: int = 20):
        if max_leaves < 2:
            raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")
        self.max_leaves = max_leaves
        self.min_samples_leaf = min_samples_leaf
        self.nodes: list[TreeNode] = []

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def _leaf_value(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + _REG_LAMBDA)

    def _score(self, grad_sum: float, hess_sum: float) -> float:
        return grad_sum * grad_sum / (hess_sum + _REG_LAMBDA)

    def _best_split(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        rows: np.ndarray,
    ) -> SplitInfo | None:
        """Scan all features' bin histograms for the best split."""
        node_grad = float(gradients[rows].sum())
        node_hess = float(hessians[rows].sum())
        parent_score = self._score(node_grad, node_hess)
        best: SplitInfo | None = None
        node_bins = binned[rows]
        node_grads = gradients[rows]
        node_hess_values = hessians[rows]
        for feature in range(binned.shape[1]):
            bins = node_bins[:, feature]
            max_bin = int(bins.max())
            if max_bin == int(bins.min()):
                continue
            grad_hist = np.bincount(bins, weights=node_grads, minlength=max_bin + 1)
            hess_hist = np.bincount(
                bins, weights=node_hess_values, minlength=max_bin + 1
            )
            count_hist = np.bincount(bins, minlength=max_bin + 1)
            grad_left = np.cumsum(grad_hist)[:-1]
            hess_left = np.cumsum(hess_hist)[:-1]
            count_left = np.cumsum(count_hist)[:-1]
            grad_right = node_grad - grad_left
            hess_right = node_hess - hess_left
            count_right = rows.size - count_left
            valid = (count_left >= self.min_samples_leaf) & (
                count_right >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            gains = (
                grad_left**2 / (hess_left + _REG_LAMBDA)
                + grad_right**2 / (hess_right + _REG_LAMBDA)
                - parent_score
            )
            gains[~valid] = -np.inf
            threshold = int(np.argmax(gains))
            gain = float(gains[threshold])
            if gain <= _MIN_GAIN:
                continue
            if best is None or gain > best.gain:
                goes_left = bins <= threshold
                best = SplitInfo(
                    feature=feature,
                    threshold_bin=threshold,
                    gain=gain,
                    left_rows=rows[goes_left],
                    right_rows=rows[~goes_left],
                )
        return best

    def fit(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
    ) -> "RegressionTree":
        """Grow the tree on pre-binned features and gradient stats."""
        num_rows = binned.shape[0]
        if gradients.shape[0] != num_rows or hessians.shape[0] != num_rows:
            raise ValueError("gradients/hessians must align with rows")
        all_rows = np.arange(num_rows)
        root = TreeNode(
            node_id=0,
            value=self._leaf_value(
                float(gradients.sum()), float(hessians.sum())
            ),
            num_samples=num_rows,
        )
        self.nodes = [root]

        # Priority queue of candidate splits, best gain first.
        counter = 0
        heap: list[tuple[float, int, int, SplitInfo]] = []
        first_split = self._best_split(binned, gradients, hessians, all_rows)
        if first_split is not None:
            heapq.heappush(heap, (-first_split.gain, counter, 0, first_split))
            counter += 1

        num_leaves = 1
        while heap and num_leaves < self.max_leaves:
            neg_gain, _, node_id, split = heapq.heappop(heap)
            node = self.nodes[node_id]
            if not node.is_leaf:
                continue
            left_id = len(self.nodes)
            right_id = left_id + 1
            left = TreeNode(
                node_id=left_id,
                value=self._leaf_value(
                    float(gradients[split.left_rows].sum()),
                    float(hessians[split.left_rows].sum()),
                ),
                num_samples=split.left_rows.size,
            )
            right = TreeNode(
                node_id=right_id,
                value=self._leaf_value(
                    float(gradients[split.right_rows].sum()),
                    float(hessians[split.right_rows].sum()),
                ),
                num_samples=split.right_rows.size,
            )
            self.nodes.extend([left, right])
            node.feature = split.feature
            node.threshold_bin = split.threshold_bin
            node.left = left_id
            node.right = right_id
            node.gain = split.gain
            num_leaves += 1

            for child_id, child_rows in (
                (left_id, split.left_rows),
                (right_id, split.right_rows),
            ):
                if child_rows.size < 2 * self.min_samples_leaf:
                    continue
                child_split = self._best_split(
                    binned, gradients, hessians, child_rows
                )
                if child_split is not None:
                    heapq.heappush(
                        heap,
                        (-child_split.gain, counter, child_id, child_split),
                    )
                    counter += 1
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned rows (vectorized traversal)."""
        if not self.nodes:
            raise RuntimeError("tree is not fitted")
        num_rows = binned.shape[0]
        node_index = np.zeros(num_rows, dtype=np.int64)
        active = np.ones(num_rows, dtype=bool)
        # Iteratively advance rows that sit at internal nodes.
        while active.any():
            current = node_index[active]
            rows = np.where(active)[0]
            for node_id in np.unique(current):
                node = self.nodes[node_id]
                here = rows[current == node_id]
                if node.is_leaf:
                    active[here] = False
                    continue
                goes_left = binned[here, node.feature] <= node.threshold_bin
                node_index[here[goes_left]] = node.left
                node_index[here[~goes_left]] = node.right
        return np.array([self.nodes[i].value for i in node_index])

    @property
    def num_leaves(self) -> int:
        return sum(1 for node in self.nodes if node.is_leaf)

    def feature_gains(self, num_features: int) -> np.ndarray:
        """Total split gain per feature (importance contribution)."""
        gains = np.zeros(num_features)
        for node in self.nodes:
            if not node.is_leaf:
                gains[node.feature] += node.gain
        return gains
