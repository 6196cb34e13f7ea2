"""Finite-difference gradient checks for every layer and the full model.

These are the load-bearing correctness tests of the nn substrate: each
layer's analytic backward pass is compared against central finite
differences of its forward pass, and the composed joint model is
checked end-to-end through the Equation-1 loss.
"""

import numpy as np
import pytest

from tests.contracts import check_call
from repro.core import JointModelConfig, JointUserEventModel
from repro.entities import Event, User
from repro.nn import (
    Affine,
    Embedding,
    ParamStore,
    Tanh,
    WindowedConv,
    check_parameter_gradient,
    contrastive_loss,
    cosine_similarity,
    cosine_similarity_backward,
    log_sum_exp_pool,
    log_sum_exp_pool_backward,
    max_relative_error,
    numeric_gradient,
    pad_batch,
    pooling_weights,
    window_mask,
)

TOLERANCE = 1.0e-5


def _random_projection(rng, shape):
    return rng.normal(size=shape)


class TestAffineGradients:
    def test_weight_bias_and_input_gradients(self):
        rng = np.random.default_rng(0)
        store = ParamStore()
        layer = Affine(store, "fc", in_dim=5, out_dim=4, rng=rng)
        inputs = rng.normal(size=(3, 5))
        projection = _random_projection(rng, (3, 4))

        def loss_fn():
            out, _ = layer.forward(inputs)
            return float((out * projection).sum())

        out, cache = layer.forward(inputs)
        store.zero_grad()
        grad_inputs = layer.backward(projection, cache)

        assert (
            check_parameter_gradient(loss_fn, layer.weight, layer.weight.grad)
            < TOLERANCE
        )
        assert (
            check_parameter_gradient(loss_fn, layer.bias, layer.bias.grad)
            < TOLERANCE
        )
        indices, numeric = numeric_gradient(loss_fn, inputs, max_entries=15)
        assert max_relative_error(grad_inputs.ravel()[indices], numeric) < TOLERANCE


class TestTanhGradients:
    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        inputs = rng.normal(size=(4, 6))
        projection = _random_projection(rng, (4, 6))

        def loss_fn():
            out, _ = Tanh.forward(inputs)
            return float((out * projection).sum())

        out, cache = Tanh.forward(inputs)
        grad_inputs = Tanh.backward(projection, cache)
        indices, numeric = numeric_gradient(loss_fn, inputs, max_entries=20)
        assert max_relative_error(grad_inputs.ravel()[indices], numeric) < TOLERANCE


class TestWindowedConvGradients:
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_weight_and_input_gradients(self, window):
        rng = np.random.default_rng(2)
        store = ParamStore()
        layer = WindowedConv(
            store, "conv", windows=(window,), in_dim=4, out_dim=3, rng=rng
        )
        (weight,), (bias,) = layer.weights, layer.biases
        inputs = rng.normal(size=(6, 4))
        num_windows = 6 - window + 1
        projection = _random_projection(rng, (num_windows, 3))

        def loss_fn():
            out, _ = layer.forward(inputs)
            return float((out * projection).sum())

        out, cache = layer.forward(inputs)
        store.zero_grad()
        grad_inputs = layer.backward(projection, cache)

        assert check_parameter_gradient(loss_fn, weight, weight.grad) < TOLERANCE
        assert check_parameter_gradient(loss_fn, bias, bias.grad) < TOLERANCE
        indices, numeric = numeric_gradient(loss_fn, inputs, max_entries=24)
        assert max_relative_error(grad_inputs.ravel()[indices], numeric) < TOLERANCE

    def test_several_windows_fill_one_buffer(self):
        """Windows (1, 2, 4) in one layer: every parameter and the
        input, with each window's K columns of the output contracted."""
        rng = np.random.default_rng(14)
        store = ParamStore()
        layer = WindowedConv(
            store, "conv", windows=(1, 2, 4), in_dim=3, out_dim=2, rng=rng
        )
        inputs = rng.normal(size=(8, 3))
        projection = _random_projection(rng, (5, 6))

        def loss_fn():
            out, _ = layer.forward(inputs)
            return float((out * projection).sum())

        out, cache = layer.forward(inputs)
        check_call(
            "repro.nn.layers.WindowedConv.forward",
            {"token_vectors": inputs},
            outputs=out,
            scalars={"reach": 3, "C": 6},
        )
        store.zero_grad()
        grad_inputs = layer.backward(projection, cache)
        for param in store:
            assert (
                check_parameter_gradient(loss_fn, param, param.grad) < TOLERANCE
            ), param.name
        indices, numeric = numeric_gradient(loss_fn, inputs, max_entries=24)
        assert max_relative_error(grad_inputs.ravel()[indices], numeric) < TOLERANCE

    def test_rejects_sequences_shorter_than_window(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        layer = WindowedConv(
            store, "conv", windows=(4,), in_dim=2, out_dim=2, rng=rng
        )
        with pytest.raises(ValueError, match="window"):
            layer.forward(rng.normal(size=(3, 2)))

    def test_rejects_unordered_windows(self):
        with pytest.raises(ValueError, match="increasing"):
            WindowedConv(
                ParamStore(), "conv", (3, 1), 2, 2, np.random.default_rng(3)
            )


class TestEmbeddingGradients:
    def test_table_gradient_with_repeated_ids(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        layer = Embedding(store, "emb", num_tokens=7, dim=3, rng=rng)
        ids = np.array([[2, 3, 2], [5, 5, 6]])
        projection = _random_projection(rng, (2, 3, 3))

        def loss_fn():
            out, _ = layer.forward(ids)
            return float((out * projection).sum())

        out, cache = layer.forward(ids)
        store.zero_grad()
        layer.backward(projection, cache)
        assert (
            check_parameter_gradient(
                loss_fn, layer.table, layer.table.grad, max_entries=21
            )
            < TOLERANCE
        )

    def test_pad_row_frozen(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        layer = Embedding(store, "emb", num_tokens=5, dim=2, rng=rng)
        assert np.all(layer.table.value[0] == 0.0)
        ids = np.array([[0, 1, 0]])
        out, cache = layer.forward(ids)
        layer.backward(np.ones_like(out), cache)
        assert np.all(layer.table.grad[0] == 0.0)
        assert np.any(layer.table.grad[1] != 0.0)


def _segments(*rows):
    """Packed ``valid`` mask and ``starts`` of per-segment bool rows."""
    valid = np.concatenate([np.asarray(row, dtype=bool) for row in rows])
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    return valid, starts


class TestPoolingGradients:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        valid, starts = _segments(
            [True, True, True, False, False], [True, True, True, True]
        )
        values = rng.normal(size=(len(valid), 3))
        projection = _random_projection(rng, (2, 3))

        def loss_fn():
            pooled, _ = log_sum_exp_pool(values.copy(), valid, starts)
            return float((pooled * projection).sum())

        pooled, cache = log_sum_exp_pool(values.copy(), valid, starts)
        grad = log_sum_exp_pool_backward(projection, cache)
        indices, numeric = numeric_gradient(loss_fn, values, max_entries=27)
        assert max_relative_error(grad.ravel()[indices], numeric) < TOLERANCE

    def test_invalid_windows_get_zero_gradient(self):
        rng = np.random.default_rng(7)
        valid, starts = _segments([True, True, False, False], [True, False])
        values = rng.normal(size=(len(valid), 2))
        pooled, cache = log_sum_exp_pool(values, valid, starts)
        grad = log_sum_exp_pool_backward(np.ones((2, 2)), cache)
        assert np.all(grad[~valid] == 0.0)
        assert np.all(grad[valid] != 0.0)

    def test_pooled_value_bounds(self):
        """Centred (log-mean-exp) pooling lies in [max - log n, max];
        raw LSE lies in [max, max + log n]."""
        rng = np.random.default_rng(8)
        values = rng.normal(size=(18, 4))
        valid, starts = _segments(*[[True] * 6] * 3)
        peak = values.reshape(3, 6, 4).max(axis=1)
        pooled, _ = log_sum_exp_pool(values.copy(), valid, starts)
        assert np.all(pooled <= peak + 1e-12)
        assert np.all(pooled >= peak - np.log(6) - 1e-12)
        raw, _ = log_sum_exp_pool(values.copy(), valid, starts, center=False)
        assert np.all(raw >= peak - 1e-12)
        assert np.all(raw <= peak + np.log(6) + 1e-12)
        assert np.allclose(raw - pooled, np.log(6))

    def test_center_shift_has_identical_gradient(self):
        """The log n shift is constant w.r.t. window values, so both
        variants share one backward pass."""
        rng = np.random.default_rng(13)
        valid, starts = _segments(
            [True, True, True, True, False], [True, True, False, False, False]
        )
        values = rng.normal(size=(len(valid), 3))
        _, cache_centered = log_sum_exp_pool(values.copy(), valid, starts)
        _, cache_raw = log_sum_exp_pool(
            values.copy(), valid, starts, center=False
        )
        grad = rng.normal(size=(2, 3))
        assert np.allclose(
            log_sum_exp_pool_backward(grad, cache_centered),
            log_sum_exp_pool_backward(grad, cache_raw),
        )

    def test_pools_in_place_and_forms_weights_on_demand(self):
        """The input buffer becomes the cache (shifted exponentials and
        their sums); softmax weights exist only once asked for."""
        rng = np.random.default_rng(15)
        valid, starts = _segments([True, True, False, False], [True] * 3)
        values = rng.normal(size=(len(valid), 3))
        _, cache = log_sum_exp_pool(values, valid, starts)
        assert cache["shifted"] is values
        assert set(cache) == {"shifted", "total", "spans"}
        weights = pooling_weights(cache)
        assert np.allclose(np.add.reduceat(weights, starts, axis=0), 1.0)
        assert np.all(weights[2:4] == 0.0)

    def test_each_group_pools_under_its_own_validity(self):
        """``(positions, groups, dim)`` values with a ``(positions,
        groups)`` mask equal one call per group."""
        rng = np.random.default_rng(16)
        spans = np.array([5, 3])
        starts = np.array([0, 5])
        counts = np.array([[5, 3, 1], [2, 1, 1]])
        offsets = np.arange(8) - np.repeat(starts, spans)
        valid = offsets[:, None] < np.repeat(counts, spans, axis=0)
        values = rng.normal(size=(8, 3, 4))
        separate = [
            log_sum_exp_pool(values[:, group].copy(), valid[:, group], starts)[0]
            for group in range(3)
        ]
        pooled, _ = log_sum_exp_pool(values, valid, starts)
        assert np.array_equal(pooled, np.stack(separate, axis=1))

    def test_requires_one_valid_window_per_row(self):
        valid, starts = _segments([True, False], [False, False, False])
        with pytest.raises(ValueError, match="valid window"):
            log_sum_exp_pool(np.zeros((5, 2)), valid, starts)


class TestCosineGradients:
    def test_gradients_both_sides(self):
        rng = np.random.default_rng(9)
        left = rng.normal(size=(4, 5))
        right = rng.normal(size=(4, 5))
        projection = _random_projection(rng, (4,))

        def loss_fn():
            sim, _ = cosine_similarity(left, right)
            return float((sim * projection).sum())

        sim, cache = cosine_similarity(left, right)
        grad_left, grad_right = cosine_similarity_backward(projection, cache)
        indices, numeric = numeric_gradient(loss_fn, left, max_entries=20)
        assert max_relative_error(grad_left.ravel()[indices], numeric) < TOLERANCE
        indices, numeric = numeric_gradient(loss_fn, right, max_entries=20)
        assert max_relative_error(grad_right.ravel()[indices], numeric) < TOLERANCE

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(10)
        vectors = rng.normal(size=(3, 4))
        sim, _ = cosine_similarity(vectors, vectors)
        assert np.allclose(sim, 1.0, atol=1e-9)


def _tiny_world():
    users = [
        User(1, {"age": "a"}, ["music", "jazz"], ["jazz club"], [1]),
        User(2, {"age": "b"}, ["food"], ["tasting society"], [2]),
        User(3, {"age": "a"}, ["sports"], ["run club"], [3]),
    ]
    events = [
        Event(1, "Jazz Night", "live jazz trio plays downtown", "music", 0, 48),
        Event(2, "Tasting Fair", "sample unique local foods", "food", 0, 24),
        Event(3, "Fun Run", "join the morning run for all", "sports", 0, 24),
    ]
    return users, events


class TestFullModelGradients:
    def test_equation1_loss_gradient_end_to_end(self):
        """Check θ-gradients of the full two-tower model + cosine +
        contrastive loss against finite differences."""
        from repro.text import DocumentEncoder

        users, events = _tiny_world()
        encoder = DocumentEncoder.fit(users, events, min_df=1)
        config = JointModelConfig.small(seed=3)
        model = JointUserEventModel(config, encoder)
        encoded_users = [encoder.encode_user(user) for user in users]
        encoded_events = [encoder.encode_event(event) for event in events]
        labels = np.array([1.0, 0.0, 1.0])

        def loss_fn():
            sim = model.similarity(encoded_users, encoded_events)
            loss, _ = contrastive_loss(sim, labels, margin=config.margin)
            return loss

        loss, grad_sim, cache = model.pair_loss(
            encoded_users, encoded_events, labels
        )
        model.store.zero_grad()
        model.backward_from_similarity(grad_sim, cache)

        rng = np.random.default_rng(11)
        for param in model.store:
            if param.name.endswith("embedding.table"):
                # PAD row is frozen by design; check other rows only.
                continue
            # floor=1e-5: gradients below that magnitude are compared
            # absolutely, since FD noise dominates their relative error.
            error = check_parameter_gradient(
                loss_fn,
                param,
                param.grad,
                eps=1.0e-5,
                max_entries=8,
                rng=rng,
                floor=1.0e-5,
            )
            assert error < 1.0e-4, f"gradient mismatch for {param.name}: {error}"

    def test_embedding_table_gradients_end_to_end(self):
        from repro.text import DocumentEncoder

        users, events = _tiny_world()
        encoder = DocumentEncoder.fit(users, events, min_df=1)
        config = JointModelConfig.small(seed=4)
        model = JointUserEventModel(config, encoder)
        encoded_users = [encoder.encode_user(user) for user in users]
        encoded_events = [encoder.encode_event(event) for event in events]
        labels = np.array([0.0, 1.0, 0.0])

        def loss_fn():
            sim = model.similarity(encoded_users, encoded_events)
            loss, _ = contrastive_loss(sim, labels, margin=config.margin)
            return loss

        loss, grad_sim, cache = model.pair_loss(
            encoded_users, encoded_events, labels
        )
        model.store.zero_grad()
        model.backward_from_similarity(grad_sim, cache)

        rng = np.random.default_rng(12)
        for name in ("user.text_embedding.table", "event.text_embedding.table"):
            param = model.store[name]
            # Restrict the check to rows that actually received gradient.
            touched = np.where(np.abs(param.grad).sum(axis=1) > 0)[0]
            assert touched.size > 0
            row = int(touched[0])

            def loss_fn_row():
                return loss_fn()

            indices, numeric = numeric_gradient(
                loss_fn_row, param.value[row], eps=1.0e-5, max_entries=4, rng=rng
            )
            analytic = param.grad[row].ravel()[indices]
            assert max_relative_error(analytic, numeric) < 1.0e-4


class TestBatching:
    def test_pad_batch_shapes_and_mask(self):
        seqs = [np.array([3, 4]), np.array([5]), np.array([6, 7, 8])]
        batch = pad_batch(seqs, 2)
        assert batch.ids.shape == batch.mask.shape == (9,)
        assert batch.mask.sum() == 6
        assert list(batch.lengths) == [2, 1, 3]
        assert list(batch.starts) == [0, 3, 5]
        assert batch.batch_size == 3 and batch.max_length == 3

    def test_empty_sequence_becomes_unk(self):
        from repro.text.vocab import UNK_ID

        batch = pad_batch([np.array([], dtype=np.int64)], 3)
        assert batch.ids[0] == UNK_ID
        assert batch.mask[0]
        assert not batch.mask[1:].any()

    def test_gap_follows_every_document(self):
        batch = pad_batch([np.array([4]), np.array([2, 3])], 3)
        assert batch.ids.tolist() == [4, 0, 0, 2, 3, 0, 0]
        assert batch.reach == 2

    def test_window_mask_full_window_rule(self):
        batch = pad_batch([np.array([5, 6, 7])], 3)
        # 3 tokens, window 3 → exactly one fully-covered window.
        assert list(window_mask(batch, (3,))[:, 0]) == [True, False, False]
        assert list(window_mask(batch, (1,))[:, 0]) == [
            True, True, True, False, False
        ]

    def test_window_mask_short_doc_keeps_one_window(self):
        batch = pad_batch([np.array([5])], 4)
        assert list(window_mask(batch, (3,))[:, 0]) == [True, False]

    def test_window_mask_independent_of_padding(self):
        docs = [np.array([5, 6, 7]), np.array([8])]
        tight = window_mask(pad_batch(docs, 2), (2,))[:, 0]
        loose = window_mask(pad_batch(docs, 4), (2,))[:, 0]
        # The same two leading windows of the first document and one of
        # the second; only the gap behind each grows.
        assert tight.tolist() == [True, True, False, False, True]
        assert loose.tolist() == [True, True] + [False] * 4 + [True, False, False]

    def test_window_mask_rejects_short_batch(self):
        batch = pad_batch([np.array([5, 6])], 2)
        with pytest.raises(ValueError, match="shorter than window"):
            window_mask(batch, (3,))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            pad_batch([], 1)
