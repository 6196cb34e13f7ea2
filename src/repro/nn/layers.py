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

from repro.nn.init import uniform_embedding, xavier_uniform, zeros
from repro.nn.params import ParamStore, Parameter
from repro.text.vocab import PAD_ID

__all__ = ["Embedding", "WindowedConv", "Affine", "Tanh", "Concat"]


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

        Uses a sort + segmented reduction instead of ``np.add.at``,
        which is an order of magnitude faster for the typical case of
        many repeated ids per batch.
        """
        ids_flat = cache["ids"].ravel()
        grad_flat = grad_out.reshape(-1, self.dim)
        order = np.argsort(ids_flat, kind="stable")
        sorted_ids = ids_flat[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
        )
        segment_sums = np.add.reduceat(grad_flat[order], starts, axis=0)
        self.table.grad[sorted_ids[starts]] += segment_sums
        self.table.grad[PAD_ID] = 0.0


class WindowedConv:
    """Convolutions of several window sizes over one token sequence.

    For window size ``d`` and token vectors of dimension ``D``, each
    window vector is the concatenation of ``d`` consecutive token
    vectors; the convolution matrix ``M_c`` has shape ``(K, d*D)``
    (paper: ``64 × (d × 64)``), plus a bias (Section 3.1).  The
    windows of one input source (paper: 1, 3, 5) read the same token
    vectors, so they run as one block: every size is evaluated at the
    same ``L`` start positions and fills its own ``K`` columns of one
    output buffer, in ascending window order.

    Input ``(L + max(windows) - 1, D)`` — one token sequence (a packed
    stream of documents) followed by the widest window − 1
    zero vectors, so that the widest window fits at every start
    position — → output ``(L, len(windows) * K)``.

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

    def _shift_blocks(self):
        """Per token shift: ``(shift, readers, first_column, columns, stacked)``.

        Token shift ``s`` within a window is read by every window wider
        than ``s`` — a suffix of the (ascending) windows.  ``readers``
        are their weights, ``columns`` the slice of their ``M_c`` they
        apply to it and ``stacked`` those slices stacked to
        ``(len(readers) * out_dim, in_dim)``, so one product serves
        them all and lands in the output columns from ``first_column``.
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
        """Convolution as a sum of shifted slice matmuls.

        Mathematically identical to concatenating window vectors and
        multiplying by M_c, but avoids materializing the
        ``(windows, d*in_dim)`` matrix: one 2-D product per shift.
        """
        padded_length = token_vectors.shape[0]
        length = padded_length - self.reach
        if length < 1:
            raise ValueError(
                f"sequence length {padded_length} < window "
                f"{self.windows[-1]}; follow the sequence with the widest "
                f"window - 1 PAD ids"
            )
        out = np.empty(
            (length, len(self.windows) * self.out_dim), dtype=token_vectors.dtype
        )
        for shift, _, first_column, _, stacked in self._shift_blocks():
            shifted = token_vectors[shift : shift + length]
            if shift == 0:
                np.matmul(shifted, stacked.T, out=out)
                out += np.concatenate([bias.value for bias in self.biases])
            else:
                out[:, first_column:] += shifted @ stacked.T
        return out, {"inputs": token_vectors}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        inputs = cache["inputs"]
        length = grad_out.shape[0]
        for bias, bias_grad in zip(
            self.biases, np.split(grad_out.sum(axis=0), len(self.biases))
        ):
            bias.grad += bias_grad
        grad_input = np.zeros_like(inputs)
        for shift, readers, first_column, columns, stacked in self._shift_blocks():
            suffix_grad = grad_out[:, first_column:]
            shifted = inputs[shift : shift + length]
            weight_grads = suffix_grad.T @ shifted
            for weight, weight_grad in zip(
                readers, np.split(weight_grads, len(readers))
            ):
                weight.grad[:, columns] += weight_grad
            grad_input[shift : shift + length] += suffix_grad @ stacked
        return grad_input


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
