"""Layers of the representation network, with manual backward passes.

Every layer follows the same protocol::

    out, cache = layer.forward(*inputs)
    grad_inputs = layer.backward(grad_out, cache)

``backward`` *accumulates* parameter gradients into the layer's
:class:`~repro.nn.params.Parameter` buffers and returns the gradient
with respect to the layer inputs, so layers compose into arbitrary
graphs without an autograd engine.  All layers are covered by
finite-difference gradient checks in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.init import uniform_embedding, xavier_uniform, zeros
from repro.nn.params import ParamStore, Parameter
from repro.text.vocab import PAD_ID

__all__ = [
    "Embedding",
    "WindowedConv",
    "Affine",
    "Tanh",
    "Concat",
    "scatter_add_rows",
]


CHUNK_WINDOWS = 4096
"""Window positions :meth:`WindowedConv.forward` gathers per product.

Bounds the gathered ``(positions, max(windows) * D)`` window matrix:
about 2 MB at ``D = 24`` in float32, however long the packed stream."""


def scatter_add_rows(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """``out[i] = Σ values[index == i]``, shape ``(rows, D)``.

    One ``np.bincount`` per column: it sums in float64, in *index*
    order, and the result is cast back to the dtype of *values*.
    """
    out = np.empty((rows, values.shape[1]), dtype=values.dtype)
    for column in range(values.shape[1]):
        out[:, column] = np.bincount(
            index, weights=values[:, column], minlength=rows
        )
    return out


class Embedding:
    """A trainable lookup table: token id → vector.

    The paper's "lookup table operation (t_i → v_{t_i})", Section 3.1.
    The PAD row is frozen at zero: padded positions contribute nothing
    and never receive gradient.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        num_tokens: int,
        dim: int,
        rng: np.random.Generator,
        init_scale: float = 0.1,
    ):
        table = uniform_embedding(rng, num_tokens, dim, scale=init_scale)
        table[PAD_ID] = 0.0
        self.table: Parameter = store.create(f"{name}.table", table)
        self.num_tokens = num_tokens
        self.dim = dim

    def forward(self, ids: np.ndarray) -> tuple[np.ndarray, dict]:
        """Look up ids of any shape → vectors, one more axis of ``dim``."""
        out = self.table.value.take(ids, axis=0)
        return out, {"ids": ids}

    def backward(self, grad_out: np.ndarray, cache: dict) -> None:
        """Scatter-add gradients into the table; PAD stays frozen.

        :func:`scatter_add_rows` sums the rows of repeated ids, one
        ``np.bincount`` per table column, in the table's dtype.
        """
        self.table.grad += scatter_add_rows(
            cache["ids"].ravel(), grad_out.reshape(-1, self.dim), self.num_tokens
        )
        self.table.grad[PAD_ID] = 0.0


class WindowedConv:
    """Convolutions of several window sizes over one token sequence.

    For window size ``d`` and token vectors of dimension ``D``, each
    window vector is the concatenation of ``d`` consecutive token
    vectors; the convolution matrix ``M_c`` has shape ``(K, d*D)``
    (paper: ``64 × (d × 64)``), plus a bias (Section 3.1).  The
    windows of one input source (paper: 1, 3, 5) read the same token
    vectors, so they run as one block: every size is evaluated at the
    same ``L`` start positions and fills its own ``K`` rows of one
    **channel-major** output, in ascending window order.

    Input ``(L + max(windows) - 1, D)`` — one token sequence (a packed
    stream of documents) followed by the widest window − 1
    zero vectors, so that the widest window fits at every start
    position — → output ``(len(windows) * K, L)``.

    Parameters are registered per window as ``{name}_w{d}.weight`` and
    ``{name}_w{d}.bias``.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        windows: Sequence[int],
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ):
        self.windows = tuple(windows)
        if not self.windows or self.windows[0] < 1:
            raise ValueError(f"windows must be >= 1, got {self.windows}")
        if any(a >= b for a, b in zip(self.windows, self.windows[1:])):
            raise ValueError(
                f"windows must be strictly increasing, got {self.windows}"
            )
        self.reach = self.windows[-1] - 1
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        for window in self.windows:
            self.weights.append(
                store.create(
                    f"{name}_w{window}.weight",
                    xavier_uniform(rng, out_dim, window * in_dim),
                )
            )
            self.biases.append(
                store.create(f"{name}_w{window}.bias", zeros(out_dim))
            )

    def _stacked_weight(self) -> np.ndarray:
        """Every ``M_c`` as one ``(len(windows) * K, max(windows) * D)``
        matrix; window ``d`` is zero past its ``d * D`` columns."""
        first = self.weights[0].value
        stacked = np.zeros(
            (len(self.windows) * self.out_dim, self.windows[-1] * self.in_dim),
            dtype=first.dtype,
        )
        for index, weight in enumerate(self.weights):
            rows = slice(index * self.out_dim, (index + 1) * self.out_dim)
            stacked[rows, : weight.value.shape[1]] = weight.value
        return stacked

    def _shift_blocks(self):
        """Per token shift: ``(shift, readers, first_row, columns, stacked)``.

        Token shift ``s`` within a window is read by every window wider
        than ``s`` — a suffix of the (ascending) windows.  ``readers``
        are their weights, ``columns`` the slice of their ``M_c`` they
        apply to it and ``stacked`` those slices stacked to
        ``(len(readers) * out_dim, in_dim)``; their output rows are the
        contiguous suffix from ``first_row``.
        """
        for shift in range(self.windows[-1]):
            first = sum(window <= shift for window in self.windows)
            columns = slice(shift * self.in_dim, (shift + 1) * self.in_dim)
            readers = self.weights[first:]
            stacked = np.concatenate(
                [weight.value[:, columns] for weight in readers]
            )
            yield shift, readers, first * self.out_dim, columns, stacked

    def forward(self, token_vectors: np.ndarray) -> tuple[np.ndarray, dict]:
        """Convolution as gathered window vectors times the stacked ``M_c``.

        The ``(L, max(windows) * D)`` window vectors are a strided view
        of the token vectors; :data:`CHUNK_WINDOWS` positions at a time
        are copied into one buffer and multiplied by
        :meth:`_stacked_weight` into their output columns.
        """
        padded_length = token_vectors.shape[0]
        length = padded_length - self.reach
        if length < 1:
            raise ValueError(
                f"sequence length {padded_length} < window "
                f"{self.windows[-1]}; follow the sequence with the widest "
                f"window - 1 PAD ids"
            )
        stacked = self._stacked_weight()
        biases = np.concatenate([bias.value for bias in self.biases])[:, None]
        width = stacked.shape[1]
        window_vectors = sliding_window_view(token_vectors.reshape(-1), width)[
            :: self.in_dim
        ]
        out = np.empty((len(stacked), length), dtype=token_vectors.dtype)
        gathered = np.empty(
            (min(length, CHUNK_WINDOWS), width), dtype=token_vectors.dtype
        )
        for start in range(0, length, CHUNK_WINDOWS):
            chunk = gathered[: min(CHUNK_WINDOWS, length - start)]
            chunk[...] = window_vectors[start : start + len(chunk)]
            columns = out[:, start : start + len(chunk)]
            np.matmul(stacked, chunk.T, out=columns)
            columns += biases
        return out, {"inputs": token_vectors}

    def backward(
        self,
        grad_out: np.ndarray,
        cache: dict,
        bias_grad: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gradients from ``(len(windows) * K, L)`` *grad_out*.

        Weight and input gradients are one product pair per token shift
        over the contiguous output rows of the windows that read it.
        *bias_grad* is ``grad_out`` summed over positions when the
        caller already knows it (pooling's softmax weights sum to one
        per document); by default it is summed here.
        """
        inputs = cache["inputs"]
        length = grad_out.shape[1]
        if bias_grad is None:
            bias_grad = grad_out.sum(axis=1)
        for bias, window_grad in zip(
            self.biases, np.split(bias_grad, len(self.biases))
        ):
            bias.grad += window_grad
        grad_input = np.empty((self.in_dim, len(inputs)), dtype=inputs.dtype)
        grad_input[:, length:] = 0.0
        for shift, readers, first_row, columns, stacked in self._shift_blocks():
            suffix_grad = grad_out[first_row:]
            weight_grads = suffix_grad @ inputs[shift : shift + length]
            for weight, weight_grad in zip(
                readers, np.split(weight_grads, len(readers))
            ):
                weight.grad[:, columns] += weight_grad
            read = grad_input[:, shift : shift + length]
            if shift == 0:  # every window reads shift 0: all rows
                np.matmul(stacked.T, suffix_grad, out=read)
            else:
                read += stacked.T @ suffix_grad
        return grad_input.T


class Affine:
    """Fully connected layer ``x @ W.T + b``."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight: Parameter = store.create(
            f"{name}.weight", xavier_uniform(rng, out_dim, in_dim)
        )
        self.bias: Parameter = store.create(f"{name}.bias", zeros(out_dim))

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        out = inputs @ self.weight.value.T + self.bias.value
        return out, {"inputs": inputs}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        inputs = cache["inputs"]
        self.weight.grad += grad_out.T @ inputs
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value


class Tanh:
    """Elementwise tanh non-linearity (no parameters)."""

    @staticmethod
    def forward(inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        out = np.tanh(inputs)
        return out, {"out": out}

    @staticmethod
    def backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
        return grad_out * (1.0 - cache["out"] ** 2)


class Concat:
    """Concatenate feature vectors along the last axis (no parameters)."""

    @staticmethod
    def forward(parts: list[np.ndarray]) -> tuple[np.ndarray, dict]:
        out = np.concatenate(parts, axis=-1)
        return out, {"widths": [part.shape[-1] for part in parts]}

    @staticmethod
    def backward(grad_out: np.ndarray, cache: dict) -> list[np.ndarray]:
        grads = []
        start = 0
        for width in cache["widths"]:
            grads.append(grad_out[..., start : start + width])
            start += width
        return grads
