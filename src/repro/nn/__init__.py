"""From-scratch numpy neural-network substrate.

Implements exactly the pieces the paper's joint representation model
needs — lookup tables, windowed convolution, log-sum-exp pooling,
affine + tanh layers, a cosine head, the Equation-1 contrastive loss,
and SGD/Adagrad with per-epoch learning-rate decay — with manual
forward/backward passes verified by finite-difference checks.
"""

from repro.nn.batching import PaddedBatch, pad_batch, window_counts, window_mask
from repro.nn.cosine import (
    COSINE_EPS,
    cosine_similarity,
    cosine_similarity_backward,
    exact_cosine,
    pair_cosine,
    unit_rows,
)
from repro.nn.gradcheck import (
    check_parameter_gradient,
    max_relative_error,
    numeric_gradient,
)
from repro.nn.layers import Affine, Concat, Embedding, Tanh, WindowedConv
from repro.nn.losses import binary_cross_entropy, contrastive_loss, sigmoid
from repro.nn.optim import SGD, Adagrad, ExponentialDecay, Optimizer
from repro.nn.params import Parameter, ParamStore
from repro.nn.pooling import (
    NEG_INF,
    log_sum_exp_pool,
    log_sum_exp_pool_backward,
    pooling_weights,
)

__all__ = [
    "COSINE_EPS",
    "Adagrad",
    "Affine",
    "Concat",
    "Embedding",
    "ExponentialDecay",
    "NEG_INF",
    "Optimizer",
    "PaddedBatch",
    "ParamStore",
    "Parameter",
    "SGD",
    "Tanh",
    "WindowedConv",
    "binary_cross_entropy",
    "check_parameter_gradient",
    "contrastive_loss",
    "cosine_similarity",
    "cosine_similarity_backward",
    "exact_cosine",
    "log_sum_exp_pool",
    "log_sum_exp_pool_backward",
    "max_relative_error",
    "numeric_gradient",
    "pad_batch",
    "pair_cosine",
    "pooling_weights",
    "sigmoid",
    "unit_rows",
    "window_counts",
    "window_mask",
]
