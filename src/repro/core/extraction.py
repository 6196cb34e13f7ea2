"""The convolutional feature extraction block (paper Figure 2).

Paper module = tokenized input → lookup table → windowed convolution →
log-sum-exp pooling → fixed-length feature vector.  The modules that
read the same input source (e.g. the three text modules with windows
1, 3, 5) share a single lookup table, matching the paper's per-source
token budget accounting (236k / 78k / 99k table rows for one user-text,
one user-categorical and one event-text table) — so one
:class:`ConvExtractionModule` runs all of a source's windows together:
one gather, one convolution block, one pooling pass, one scatter.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.batching import PaddedBatch, window_counts
from repro.nn.layers import Embedding, WindowedConv
from repro.nn.params import ParamStore
from repro.nn.pooling import (
    log_sum_exp_pool,
    log_sum_exp_pool_backward,
    pooling_weights,
)
from repro.text.vocab import PAD_ID

__all__ = ["ConvExtractionModule"]


class ConvExtractionModule:
    """Lookup table + every convolution window of one source + pooling.

    Args:
        store: parameter store to register the convolution weights in.
        name: parameter-name prefix; window ``d`` registers
            ``{name}_w{d}.weight`` and ``{name}_w{d}.bias``.
        embedding: the lookup table for this source.
        windows: convolution window sizes, strictly increasing.
        out_dim: pooled output dimension per window (paper: 64).
        rng: generator for weight initialization.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        embedding: Embedding,
        windows: Sequence[int],
        out_dim: int,
        rng: np.random.Generator,
    ):
        self.name = name
        self.embedding = embedding
        self.out_dim = out_dim
        self.conv = WindowedConv(
            store, name, windows, embedding.dim, out_dim, rng
        )
        self.windows = self.conv.windows
        self.feature_dim = out_dim * len(self.windows)

    def forward(self, batch: PaddedBatch) -> tuple[np.ndarray, dict]:
        """``(batch of sequences)`` → ``(batch, feature_dim)`` features:
        the pooled ``out_dim`` values of each window, in window order.

        The ids are right-padded here by the widest window − 1 PAD
        columns (PAD embeds to zero), so every window size is convolved
        at the same ``batch.max_length`` positions; which of them count
        is :func:`~repro.nn.batching.window_counts`' rule.
        """
        rows, length = batch.ids.shape
        ids = np.full((rows, length + self.conv.reach), PAD_ID, dtype=np.int64)
        ids[:, :length] = batch.ids
        token_vectors, emb_cache = self.embedding.forward(ids)
        window_values, conv_cache = self.conv.forward(token_vectors)
        valid = (
            np.arange(length)[None, :, None]
            < window_counts(batch.lengths, self.windows)[:, None, :]
        )
        pooled, pool_cache = log_sum_exp_pool(
            window_values.reshape(rows, length, len(self.windows), self.out_dim),
            valid,
        )
        cache = {"emb": emb_cache, "conv": conv_cache, "pool": pool_cache}
        return pooled.reshape(rows, self.feature_dim), cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> None:
        """Accumulate gradients into the conv weights and lookup table."""
        rows = grad_out.shape[0]
        grad_windows = log_sum_exp_pool_backward(
            grad_out.reshape(rows, len(self.windows), self.out_dim),
            cache["pool"],
        )
        grad_tokens = self.conv.backward(
            grad_windows.reshape(rows, -1, self.feature_dim), cache["conv"]
        )
        self.embedding.backward(grad_tokens, cache["emb"])

    def pooling_attribution(self, cache: dict) -> dict[int, np.ndarray]:
        """Softmax window weights of a forward pass, per window size.

        Each ``(batch, positions, out_dim)`` — the share of each pooled
        output dimension attributable to the window starting at each
        position; invalid windows hold weight 0.  Used by the Figure-7
        trace-back analysis.
        """
        weights = pooling_weights(cache["pool"])
        return {
            window: weights[:, :, index]
            for index, window in enumerate(self.windows)
        }
