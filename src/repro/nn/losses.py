"""Training losses.

* :func:`contrastive_loss` — Equation 1 of the paper, applied to the
  cosine similarity of a (user, event) pair:

      L(u, e) = 1 − s            if y = 1
      L(u, e) = max(0, s − θ_r)  if y = 0

  Positives are pulled to similarity 1; negatives are pushed below the
  margin θ_r (the paper uses θ_r = 0 throughout).

* :func:`binary_cross_entropy` — the combiner objective of Section 4,
  also used to fit GBDT leaf values and calibration heads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["contrastive_loss", "binary_cross_entropy", "sigmoid"]


def contrastive_loss(
    similarity: np.ndarray,
    labels: np.ndarray,
    margin: float = 0.0,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean Equation-1 loss and its gradient w.r.t. similarity.

    Args:
        similarity: ``(batch,)`` cosine similarities in [-1, 1].
        labels: ``(batch,)`` binary participation labels.
        margin: θ_r, the tolerated similarity for negative pairs.
        sample_weight: optional per-example weights.  This supports the
            paper's future-work direction of integrating weaker
            feedback types (clicks, views) as down-weighted positives;
            weights are normalized by the batch size, not their sum,
            so weighting does not rescale the effective learning rate.

    Returns:
        ``(loss, grad)`` where grad is d(mean loss)/d(similarity).
    """
    labels = labels.astype(bool)
    positive_term = np.where(labels, 1.0 - similarity, 0.0)
    hinge = np.maximum(0.0, similarity - margin)
    negative_term = np.where(labels, 0.0, hinge)
    per_example = positive_term + negative_term
    batch = similarity.shape[0]
    grad = np.where(
        labels,
        -1.0,
        np.where(similarity > margin, 1.0, 0.0),
    )
    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if sample_weight.shape != similarity.shape:
            raise ValueError(
                f"sample_weight shape {sample_weight.shape} must match "
                f"similarity shape {similarity.shape}"
            )
        if np.any(sample_weight < 0):
            raise ValueError("sample weights must be non-negative")
        per_example = per_example * sample_weight
        grad = grad * sample_weight
    return float(per_example.mean()), grad / batch


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(logits, dtype=np.float64)
    positive = logits >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-logits[positive]))
    exp_logits = np.exp(logits[~positive])
    out[~positive] = exp_logits / (1.0 + exp_logits)
    return out


def binary_cross_entropy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of predicted probabilities against labels."""
    clipped = np.clip(probabilities, 1.0e-12, 1.0 - 1.0e-12)
    labels = labels.astype(np.float64)
    per_example = -(
        labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped)
    )
    return float(per_example.mean())
