"""Evaluation metrics of Section 5.1.

"In the final evaluation, we report the precision and recall (P/R)
achieved at different thresholds and also area under the ROC curve
(AUC).  We focus on high recall region..."

Implemented from first principles on numpy: rank-based ROC-AUC with
tie handling, the full precision/recall curve, and the paper's PR60 /
PR80 operating points (precision at recall 0.60 / 0.80).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

__all__ = [
    "roc_auc",
    "PRCurve",
    "pr_curve",
    "roc_curve",
    "ClassifierReport",
    "evaluate_scores",
]


def _validate(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError(
            f"labels {labels.shape} and scores {scores.shape} must align"
        )
    if labels.size == 0:
        raise ValueError("cannot evaluate empty arrays")
    unique = np.unique(labels)
    if not np.all(np.isin(unique, (0.0, 1.0))):
        raise ValueError(f"labels must be binary, got values {unique}")
    return labels, scores


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Ties in scores receive average ranks, so the result matches the
    trapezoidal ROC integral exactly.
    """
    labels, scores = _validate(labels, scores)
    num_positive = int(labels.sum())
    num_negative = labels.size - num_positive
    if num_positive == 0 or num_negative == 0:
        raise ValueError("AUC needs both classes present")
    ranks = rankdata(scores)
    # repro: noqa[RPR105] labels are exact 0.0/1.0 sentinels, not computed floats
    positive_rank_sum = float(ranks[labels == 1.0].sum())
    auc = (
        positive_rank_sum - num_positive * (num_positive + 1) / 2.0
    ) / (num_positive * num_negative)
    return float(auc)


@dataclass
class PRCurve:
    """A precision/recall curve over descending score thresholds."""

    precision: np.ndarray
    recall: np.ndarray
    thresholds: np.ndarray

    def precision_at(self, target_recall: float) -> float:
        """Highest precision achievable at recall >= target."""
        if not 0.0 < target_recall <= 1.0:
            raise ValueError(f"target recall must be in (0, 1], got {target_recall}")
        feasible = self.recall >= target_recall
        if not feasible.any():
            return 0.0
        return float(self.precision[feasible].max())

    def average_precision(self) -> float:
        """Step-wise area under the P/R curve (AP)."""
        recall = np.concatenate(([0.0], self.recall))
        return float(np.sum((recall[1:] - recall[:-1]) * self.precision))


def pr_curve(labels: np.ndarray, scores: np.ndarray) -> PRCurve:
    """Precision/recall at every distinct score threshold."""
    labels, scores = _validate(labels, scores)
    num_positive = labels.sum()
    if num_positive == 0:
        raise ValueError("P/R curve needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    true_positive = np.cumsum(sorted_labels)
    predicted_positive = np.arange(1, labels.size + 1)
    precision = true_positive / predicted_positive
    recall = true_positive / num_positive
    # Keep the last entry of each tied-score block so thresholds are
    # well defined.
    distinct = np.ones(labels.size, dtype=bool)
    distinct[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    return PRCurve(
        precision=precision[distinct],
        recall=recall[distinct],
        thresholds=sorted_scores[distinct],
    )


def roc_curve(
    labels: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """False-positive rate, true-positive rate, thresholds."""
    labels, scores = _validate(labels, scores)
    num_positive = labels.sum()
    num_negative = labels.size - num_positive
    if num_positive == 0 or num_negative == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    true_positive = np.cumsum(sorted_labels)
    false_positive = np.cumsum(1.0 - sorted_labels)
    distinct = np.ones(labels.size, dtype=bool)
    distinct[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    return (
        false_positive[distinct] / num_negative,
        true_positive[distinct] / num_positive,
        sorted_scores[distinct],
    )


@dataclass(frozen=True)
class ClassifierReport:
    """The three headline numbers of Tables 1 and 2."""

    pr60: float
    pr80: float
    auc: float

    def as_row(self, name: str) -> str:
        return f"{name:<28s} {self.pr60:6.3f} {self.pr80:6.3f} {self.auc:6.3f}"


def evaluate_scores(labels: np.ndarray, scores: np.ndarray) -> ClassifierReport:
    """Compute PR60 / PR80 / AUC for one model's scores."""
    curve = pr_curve(labels, scores)
    return ClassifierReport(
        pr60=curve.precision_at(0.60),
        pr80=curve.precision_at(0.80),
        auc=roc_auc(labels, scores),
    )
