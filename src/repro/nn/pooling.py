"""Log-sum-exp (soft-max) pooling, Section 3.1.

The paper pools the convolved window vectors per output dimension with
the numerically stable log-sum-exp:

    v_(k) = v'*_(k) + log Σ_i exp(v'_{w_i(k)} − v'*_(k)),
    v'*_(k) = max_i v'_{w_i(k)}

Activations are **channel-major**: window positions are the last axis,
so every reduction runs along contiguous memory.  Each document of a
packed stream is one segment of window positions.  Invalid windows
(those starting past a document's window count, in the PAD gap behind
it) are set to a large negative constant by index before pooling, so
they neither win the max nor contribute to the sum.  The backward pass
distributes gradient with softmax weights over windows — the same
weights the Figure-7 trace-back analysis reads.
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


def log_sum_exp_pool(
    window_values: np.ndarray,
    valid: np.ndarray,
    starts: np.ndarray,
    center: bool = True,
) -> tuple[np.ndarray, dict]:
    """Pool ``(channels, positions)`` activations into ``(channels, segments)``.

    The positions are the windows of a packed stream; segment ``i``
    (one document) owns positions ``starts[i]`` up to the next start,
    the last one up to the end, and is reduced with
    ``np.maximum.reduceat`` / ``np.add.reduceat`` along the last axis.
    Works **in place**: *window_values* is overwritten with the shifted
    exponentials, which become the cache, so keeping it costs no
    second buffer of that size.  Every channel is pooled
    independently, and *valid* may carry a leading group axis —
    ``(groups, dim, positions)`` values with a ``(groups, positions)``
    mask pool several window sizes at once, each under its own
    validity.

    Args:
        window_values: convolved window activations, finite everywhere
            (also at invalid windows).
        valid: ``(positions,)`` bool mask of real windows, or
            ``(groups, positions)`` as above.  Every segment must
            contain at least one valid window.
        starts: ``(segments,)`` increasing first position of each
            segment; ``starts[0]`` is 0.
        center: subtract ``log(num_valid_windows)`` per segment — the
            log-*mean*-exp variant.  This differs from the paper's
            Eq. 3 only by a per-document constant (the softmax window
            weights, and hence the Figure-7 trace-back, are identical),
            but it keeps pooled activations zero-centred at
            initialization.  With raw LSE the ``+log n`` offset
            (≈ 5-6 for a few hundred windows) saturates the downstream
            tanh hidden layer and training never escapes the plateau.

    Returns:
        ``(pooled, cache)`` where cache holds the shifted exponentials,
        their sums per segment and each segment's number of positions:
        what :func:`log_sum_exp_pool_backward` and
        :func:`pooling_weights` form the softmax weights from.
    """
    if not np.logical_or.reduceat(valid, starts, axis=-1).all():
        raise ValueError("every sequence needs at least one valid window")
    invalid = np.nonzero(~valid)
    window_values[invalid[:-1] + (Ellipsis,) + invalid[-1:]] = NEG_INF
    spans = np.append(starts[1:], window_values.shape[-1]) - starts
    peak = np.maximum.reduceat(window_values, starts, axis=-1)
    window_values -= np.repeat(peak, spans, axis=-1)
    np.exp(window_values, out=window_values)
    total = np.add.reduceat(window_values, starts, axis=-1)
    pooled = peak + np.log(total)
    if center:
        counts = np.add.reduceat(valid, starts, axis=-1, dtype=np.intp)
        pooled -= np.log(counts).astype(window_values.dtype)[..., None, :]
    return pooled, {"shifted": window_values, "total": total, "spans": spans}


def pooling_weights(cache: dict) -> np.ndarray:
    """Softmax weight of every window, shaped like the window values.

    The share of its segment's pooled output attributable to each
    window; invalid windows hold exactly zero (their exponential
    underflowed).
    """
    return cache["shifted"] / np.repeat(cache["total"], cache["spans"], axis=-1)


def log_sum_exp_pool_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass: gradient flows to windows by softmax weight.

    Returns the gradient with respect to ``window_values``; invalid
    windows receive zero gradient because their softmax weight is zero.
    """
    grad = np.repeat(grad_out / cache["total"], cache["spans"], axis=-1)
    grad *= cache["shifted"]
    return grad
