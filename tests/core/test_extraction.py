"""Convolutional feature extraction block."""

import numpy as np
import pytest

from tests.contracts import check_call
from repro.core.extraction import ConvExtractionModule
from repro.nn.batching import pad_batch
from repro.nn.gradcheck import (
    check_parameter_gradient,
    max_relative_error,
    numeric_gradient,
)
from repro.nn.layers import Embedding
from repro.nn.params import ParamStore
from repro.text.vocab import PAD_ID, UNK_ID
from tests.reference import extraction_oracle


def make_block(rng, windows, num_tokens=20, dim=6, out_dim=5):
    store = ParamStore()
    embedding = Embedding(store, "emb", num_tokens=num_tokens, dim=dim, rng=rng)
    block = ConvExtractionModule(store, "conv", embedding, windows, out_dim, rng)
    return store, embedding, block


@pytest.fixture()
def block(rng):
    """Windows 1 and 3 over one lookup table."""
    return make_block(rng, (1, 3))


def window_features(block, pooled, window):
    """The ``out_dim`` columns of *pooled* that belong to *window*."""
    index = block.windows.index(window)
    return pooled[:, index * block.out_dim : (index + 1) * block.out_dim]


# A document shorter than the widest window and an empty (→ UNK) one
# ride in every batch below.
DOCUMENTS = [
    np.array([2, 3, 4, 5, 3, 7]),
    np.array([6, 7]),
    np.array([], dtype=np.int64),
    np.array([9, 2, 4, 7, 3, 11, 5]),
]


class TestForward:
    def test_output_shape(self, block):
        _, _, block = block
        batch = pad_batch([np.array([2, 3, 4, 5]), np.array([6, 7])])
        pooled, _ = block.forward(batch)
        assert pooled.shape == (2, 10) == (2, block.feature_dim)
        check_call(
            "repro.core.extraction.ConvExtractionModule.forward",
            {"ids": batch.ids, "lengths": batch.lengths},
            outputs=pooled,
            scalars={"C": block.feature_dim},
        )

    def test_parameter_names_are_per_window(self, block):
        store, _, _ = block
        assert [param.name for param in store] == [
            "emb.table",
            "conv_w1.weight",
            "conv_w1.bias",
            "conv_w3.weight",
            "conv_w3.bias",
        ]
        assert store["conv_w3.weight"].value.shape == (5, 3 * 6)

    def test_shared_embedding_receives_gradient_from_both(self, block):
        store, embedding, block = block
        batch = pad_batch([np.array([2, 3, 4, 5])])
        pooled, cache = block.forward(batch)
        only_first = np.zeros_like(pooled)
        window_features(block, only_first, 1)[...] = 1.0
        store.zero_grad()
        block.backward(only_first, cache)
        from_first = embedding.table.grad.copy()
        store.zero_grad()
        block.backward(np.ones_like(pooled), cache)
        assert np.abs(embedding.table.grad).sum() > np.abs(from_first).sum()

    def test_pooling_attribution_shape(self, block):
        _, _, block = block
        batch = pad_batch([np.arange(2, 8)])
        pooled, cache = block.forward(batch)
        attribution = block.pooling_attribution(cache)
        assert list(attribution) == [1, 3]
        for window, weights in attribution.items():
            assert weights.shape == (1, batch.max_length, 5)
            # Softmax weights: each output dim's window weights sum to
            # 1, all of it on the document's 6 - window + 1 windows.
            assert np.allclose(weights.sum(axis=1), 1.0)
            assert np.all(weights[:, 6 - window + 1 :] == 0.0)

    def test_short_doc_one_window(self, block):
        """A one-token doc through a window-3 module still produces a
        finite feature vector (the guaranteed-window rule)."""
        _, _, block = block
        batch = pad_batch([np.array([2]), np.array([3, 4, 5, 6])])
        pooled, cache = block.forward(batch)
        assert np.all(np.isfinite(pooled))
        weights = block.pooling_attribution(cache)[3]
        assert np.allclose(weights[0, 0, :], 1.0)  # all mass on window 0

    def test_permutation_invariance_for_window_one(self, block):
        """A window-1 module with LSE pooling is order-invariant —
        exactly why it suits unordered id features (Section 3.1.1)."""
        _, _, block = block
        ids = np.array([2, 9, 4, 7, 3])
        forward = block.forward(pad_batch([ids]))[0]
        shuffled = block.forward(pad_batch([ids[::-1].copy()]))[0]
        assert np.allclose(
            window_features(block, forward, 1),
            window_features(block, shuffled, 1),
            atol=1e-9,
        )

    def test_window_three_is_order_sensitive(self, block):
        _, _, block = block
        ids = np.array([2, 9, 4, 7, 3])
        forward = block.forward(pad_batch([ids]))[0]
        swapped = block.forward(pad_batch([np.array([9, 2, 4, 7, 3])]))[0]
        assert not np.allclose(
            window_features(block, forward, 3), window_features(block, swapped, 3)
        )


@pytest.mark.parametrize("windows", [(1,), (1, 3), (1, 3, 5)])
class TestGradients:
    def test_every_parameter_against_finite_differences(self, rng, windows):
        store, embedding, block = make_block(rng, windows, dim=4, out_dim=3)
        batch = pad_batch(DOCUMENTS)
        projection = rng.normal(size=(len(DOCUMENTS), block.feature_dim))

        def loss_fn():
            pooled, _ = block.forward(batch)
            return float((pooled * projection).sum())

        pooled, cache = block.forward(batch)
        store.zero_grad()
        block.backward(projection, cache)
        for param in block.conv.weights + block.conv.biases:
            # eps and floor as in the full-model check: gradients below
            # the floor are compared absolutely (FD round-off dominates).
            error = check_parameter_gradient(
                loss_fn,
                param,
                param.grad,
                eps=1.0e-5,
                max_entries=40,
                rng=rng,
                floor=1.0e-5,
            )
            assert error < 1.0e-5, f"{param.name}: {error}"
        # The PAD row is frozen by design (windows hanging off a short
        # document read it); every other table row is checked.
        table = embedding.table
        indices, numeric = numeric_gradient(
            loss_fn, table.value[PAD_ID + 1 :], eps=1.0e-5, max_entries=40, rng=rng
        )
        analytic = table.grad[PAD_ID + 1 :].ravel()[indices]
        assert max_relative_error(analytic, numeric, floor=1.0e-5) < 1.0e-5
        assert np.all(table.grad[PAD_ID] == 0.0)

    def test_matches_the_concatenate_and_multiply_oracle(self, rng, windows):
        """Forward values and every parameter gradient equal the
        paper's Eq. 2-3 evaluated one document and window at a time."""
        store, embedding, block = make_block(rng, windows)
        projection = rng.normal(size=(len(DOCUMENTS), block.feature_dim))
        pooled, cache = block.forward(pad_batch(DOCUMENTS))
        store.zero_grad()
        block.backward(projection, cache)

        expected, table_grad, weight_grads, bias_grads = extraction_oracle(
            embedding.table.value,
            [weight.value for weight in block.conv.weights],
            [bias.value for bias in block.conv.biases],
            windows,
            [doc if len(doc) else [UNK_ID] for doc in DOCUMENTS],
            grad_features=projection,
        )
        assert np.allclose(pooled, expected, rtol=0, atol=1e-10)
        assert np.allclose(embedding.table.grad, table_grad, rtol=0, atol=1e-10)
        for ours, theirs in zip(
            block.conv.weights + block.conv.biases, weight_grads + bias_grads
        ):
            assert np.allclose(ours.grad, theirs, rtol=0, atol=1e-10), ours.name
