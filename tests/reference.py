"""Reference implementations the parity suites compare against.

Deliberately slow and obvious: a Python sort for the ranking contract,
and a per-event loop over :meth:`RepresentationService.score` (that is,
:func:`repro.nn.cosine.pair_cosine` on cached vectors) for a whole
ranking.  Neither touches :class:`~repro.store.index.EventIndex`,
``top_k_order`` or the service's rank body, so the indexed single-user,
batch and HTTP paths can all be held to them: ids equal, scores within
1e-9.

:func:`extraction_oracle` is the same idea for the network's hot
kernel: the paper's extraction modules as literally as Equations 2-3
state them, which the fused ``ConvExtractionModule`` must reproduce.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.service import RepresentationService, ScoredEvent, validate_top_k
from repro.entities import Event, User


def brute_force_order(
    scores: Sequence[float], event_ids: Sequence[int], k: int | None = None
) -> list[int]:
    """Indices ordered by ``(-score, event_id)``, truncated to ``k``."""
    order = sorted(
        range(len(scores)), key=lambda i: (-scores[i], event_ids[i])
    )
    return order[:k]


def rank_events_loop(
    service: RepresentationService,
    user: User,
    events: Sequence[Event],
    at_time: float | None = None,
    top_k: int | None = None,
) -> list[ScoredEvent]:
    """Per-event scoring loop with the contract of ``rank_events``."""
    top_k = validate_top_k(top_k)
    scored = [
        ScoredEvent(event=event, score=service.score(user, event))
        for event in events
        if at_time is None or event.is_active(at_time)
    ]
    scored.sort(key=lambda item: (-item.score, item.event.event_id))
    return scored[:top_k]


def extraction_oracle(
    table: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    windows: Sequence[int],
    documents: Sequence[Sequence[int]],
    grad_features: np.ndarray | None = None,
):
    """The paper's extraction modules, one document and window at a time.

    Equation 2-3 as written: concatenate ``d`` consecutive token
    vectors into a window vector, multiply by ``M_c`` (``weights[j]``,
    ``(K, d·D)``) and add the bias, then soft-max pool every output
    dimension over the document's windows — log-*mean*-exp, the
    centred variant the model uses.  A document of ``n`` tokens has
    ``max(1, n - d + 1)`` windows; one shorter than ``d`` is completed
    with zero vectors.

    Returns the ``(documents, len(windows)·K)`` features; with
    *grad_features* also the gradients of ``Σ features · grad_features``
    as ``(features, table_grad, weight_grads, bias_grads)``.
    """
    dim = table.shape[1]
    features = []
    table_grad = np.zeros_like(table)
    weight_grads = [np.zeros_like(weight) for weight in weights]
    bias_grads = [np.zeros_like(bias) for bias in biases]
    for row, document in enumerate(documents):
        pooled_parts = []
        for index, window in enumerate(windows):
            count = max(1, len(document) - window + 1)
            window_ids = [
                list(document[start : start + window]) for start in range(count)
            ]
            window_vectors = np.stack(
                [
                    np.concatenate(
                        [table[token] for token in ids]
                        + [np.zeros(dim)] * (window - len(ids))
                    )
                    for ids in window_ids
                ]
            )
            convolved = window_vectors @ weights[index].T + biases[index]
            peak = convolved.max(axis=0)
            exponentials = np.exp(convolved - peak)
            pooled_parts.append(
                peak + np.log(exponentials.sum(axis=0)) - np.log(count)
            )
            if grad_features is None:
                continue
            out_dim = len(biases[index])
            grad_pooled = grad_features[
                row, index * out_dim : (index + 1) * out_dim
            ]
            grad_convolved = (
                exponentials / exponentials.sum(axis=0) * grad_pooled
            )
            weight_grads[index] += grad_convolved.T @ window_vectors
            bias_grads[index] += grad_convolved.sum(axis=0)
            grad_window_vectors = grad_convolved @ weights[index]
            for ids, grad_vector in zip(window_ids, grad_window_vectors):
                for slot, token in enumerate(ids):
                    table_grad[token] += grad_vector[
                        slot * dim : (slot + 1) * dim
                    ]
        features.append(np.concatenate(pooled_parts))
    features = np.stack(features)
    if grad_features is None:
        return features
    return features, table_grad, weight_grads, bias_grads
