"""Log-sum-exp (soft-max) pooling, Section 3.1.

The paper pools the convolved window vectors per output dimension with
the numerically stable log-sum-exp:

    v_(k) = v'*_(k) + log Σ_i exp(v'_{w_i(k)} − v'*_(k)),
    v'*_(k) = max_i v'_{w_i(k)}

Invalid windows (those created by batch padding) are excluded by
pushing their pre-pool activation down by a large negative constant, so
they neither win the max nor contribute to the sum.  The backward
pass distributes gradient with softmax weights over windows — the
same weights the Figure-7 trace-back analysis reads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_sum_exp_pool",
    "log_sum_exp_pool_backward",
    "pooling_weights",
    "NEG_INF",
]

# Large negative stand-in for -inf that keeps exp() underflow clean.
NEG_INF = -1.0e30


def _over_columns(per_window: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Append the trailing unit axes that broadcast against *values*."""
    return per_window.reshape(
        per_window.shape + (1,) * (values.ndim - per_window.ndim)
    )


def log_sum_exp_pool(
    window_values: np.ndarray, valid: np.ndarray, center: bool = True
) -> tuple[np.ndarray, dict]:
    """Pool ``(batch, windows, dim)`` activations into ``(batch, dim)``.

    Works **in place**: *window_values* is overwritten with the shifted
    exponentials, which become the cache, so a forward-only pass
    allocates nothing of its size.  The windows axis is axis 1; any
    axes after it are pooled independently, and *valid* may carry the
    leading ones of them — ``(batch, windows, groups, dim)`` values
    with a ``(batch, windows, groups)`` mask pool several window sizes
    at once, each under its own validity.

    Args:
        window_values: convolved window activations, finite everywhere
            (also at invalid windows).
        valid: ``(batch, windows)`` bool mask of real windows.  Every
            row must contain at least one valid window.
        center: subtract ``log(num_valid_windows)`` per example — the
            log-*mean*-exp variant.  This differs from the paper's
            Eq. 3 only by a per-document constant (the softmax window
            weights, and hence the Figure-7 trace-back, are identical),
            but it keeps pooled activations zero-centred at
            initialization.  With raw LSE the ``+log n`` offset
            (≈ 5-6 for a few hundred windows) saturates the downstream
            tanh hidden layer and training never escapes the plateau.

    Returns:
        ``(pooled, cache)`` where cache holds the shifted exponentials
        and their sums over windows: what
        :func:`log_sum_exp_pool_backward` and :func:`pooling_weights`
        form the softmax weights from.
    """
    if not valid.any(axis=1).all():
        raise ValueError("every sequence needs at least one valid window")
    dtype = window_values.dtype
    window_values += _over_columns(
        np.where(valid, 0.0, NEG_INF).astype(dtype), window_values
    )
    peak = window_values.max(axis=1, keepdims=True)
    window_values -= peak
    np.exp(window_values, out=window_values)
    total = window_values.sum(axis=1, keepdims=True)
    pooled = (peak + np.log(total)).squeeze(axis=1)
    if center:
        counts = valid.sum(axis=1)
        pooled -= _over_columns(np.log(counts).astype(dtype), pooled)
    return pooled, {"shifted": window_values, "total": total}


def pooling_weights(cache: dict) -> np.ndarray:
    """Softmax weight of every window, shaped like the pooled values.

    The share of each pooled output attributable to each window;
    invalid windows hold exactly zero (their exponential underflowed).
    """
    return cache["shifted"] / cache["total"]


def log_sum_exp_pool_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass: gradient flows to windows by softmax weight.

    Returns the gradient with respect to ``window_values``; invalid
    windows receive zero gradient because their softmax weight is zero.
    """
    return cache["shifted"] * (grad_out[:, None] / cache["total"])
