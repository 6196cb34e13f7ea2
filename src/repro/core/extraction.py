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

from repro.nn.batching import PackedBatch, window_mask
from repro.nn.layers import Embedding, WindowedConv
from repro.nn.params import ParamStore
from repro.nn.pooling import (
    log_sum_exp_pool,
    log_sum_exp_pool_backward,
    pooling_weights,
)

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

    def forward(self, batch: PackedBatch) -> tuple[np.ndarray, dict]:
        """``(batch of sequences)`` → ``(batch, feature_dim)`` features:
        the pooled ``out_dim`` values of each window, in window order.

        Every window size is convolved at the same positions of the
        packed stream — each document's tokens and the PAD gap behind
        it — into channel-major ``(feature_dim, positions)``
        activations, and each document's windows pool as one segment
        along the positions axis; which of them count is
        :func:`~repro.nn.batching.window_mask`'s rule.
        """
        token_vectors, emb_cache = self.embedding.forward(batch.ids)
        window_values, conv_cache = self.conv.forward(token_vectors)
        pooled, pool_cache = log_sum_exp_pool(
            window_values.reshape(len(self.windows), self.out_dim, -1),
            window_mask(batch, self.windows).T,
            batch.starts,
        )
        cache = {
            "emb": emb_cache,
            "conv": conv_cache,
            "pool": pool_cache,
            "batch": batch,
        }
        return pooled.reshape(self.feature_dim, batch.batch_size).T, cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> None:
        """Accumulate gradients into the conv weights and lookup table.

        A document's softmax window weights sum to one, so each bias
        gradient is *grad_out* summed over documents.
        """
        grad_windows = log_sum_exp_pool_backward(
            grad_out.T.reshape(len(self.windows), self.out_dim, -1),
            cache["pool"],
        )
        grad_tokens = self.conv.backward(
            grad_windows.reshape(self.feature_dim, -1),
            cache["conv"],
            bias_grad=grad_out.sum(axis=0),
        )
        self.embedding.backward(grad_tokens, cache["emb"])

    def pooling_attribution(self, cache: dict) -> dict[int, np.ndarray]:
        """Softmax window weights of a forward pass, per window size.

        Each ``(batch, positions, out_dim)`` — the share of each pooled
        output dimension attributable to the window starting at each
        position of the document (``positions`` is the longest
        document's length); invalid windows hold weight 0.  Used by the
        Figure-7 trace-back analysis.
        """
        batch = cache["batch"]
        packed = pooling_weights(cache["pool"])
        real = np.arange(batch.max_length) < batch.lengths[:, None]
        weights = np.zeros(real.shape + packed.shape[:-1], dtype=packed.dtype)
        weights[real] = np.moveaxis(
            packed[..., batch.mask[: packed.shape[-1]]], -1, 0
        )
        return {
            window: weights[:, :, index]
            for index, window in enumerate(self.windows)
        }
