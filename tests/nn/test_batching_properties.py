"""Property-based tests of batching and pooling invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.batching import pad_batch, window_mask
from repro.nn.pooling import log_sum_exp_pool, pooling_weights
from repro.text.vocab import PAD_ID

sequences = st.lists(
    st.lists(st.integers(1, 50), max_size=12).map(
        lambda items: np.asarray(items, dtype=np.int64)
    ),
    min_size=1,
    max_size=6,
)


class TestPadBatchProperties:
    @given(sequences, st.integers(1, 5))
    def test_mask_marks_exactly_the_real_tokens(self, seqs, min_length):
        batch = pad_batch(seqs, min_length=min_length)
        for row, seq in enumerate(seqs):
            expected = max(1, len(seq))  # empty → single UNK
            assert batch.mask[row].sum() == expected
            assert np.all(batch.ids[row, expected:] == PAD_ID)

    @given(sequences, st.integers(1, 5))
    def test_shape_covers_min_length(self, seqs, min_length):
        batch = pad_batch(seqs, min_length=min_length)
        assert batch.max_length >= min_length
        assert batch.ids.shape == batch.mask.shape

    @given(sequences, st.integers(1, 4))
    def test_window_count_formula(self, seqs, window):
        batch = pad_batch(seqs, min_length=window)
        valid = window_mask(batch.mask, window)
        for row, seq in enumerate(seqs):
            n = max(1, len(seq))
            assert valid[row].sum() == max(1, n - window + 1)

    @given(sequences, st.integers(1, 4), st.integers(0, 6))
    def test_window_mask_invariant_to_extra_padding(
        self, seqs, window, extra
    ):
        tight = pad_batch(seqs, min_length=window)
        loose = pad_batch(seqs, min_length=tight.max_length + extra)
        tight_mask = window_mask(tight.mask, window)
        loose_mask = window_mask(loose.mask, window)
        assert np.array_equal(
            tight_mask, loose_mask[:, : tight_mask.shape[1]]
        )
        assert not loose_mask[:, tight_mask.shape[1] :].any()


class TestPoolingProperties:
    @settings(max_examples=30)
    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    def test_weights_are_a_distribution(self, batch, windows, dim, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(batch, windows, dim))
        lengths = rng.integers(1, windows + 1, size=batch)
        valid = np.arange(windows)[None, :] < lengths[:, None]
        pooled, cache = log_sum_exp_pool(values, valid)
        weights = pooling_weights(cache)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0.0)
        # Invalid windows hold (numerically) zero weight.
        assert np.all(weights[~valid] < 1e-12)
        assert np.all(np.isfinite(pooled))

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_pooling_between_mean_and_max(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(2, 7, 3))
        valid = np.ones((2, 7), dtype=bool)
        pooled, _ = log_sum_exp_pool(values.copy(), valid)  # pools in place
        assert np.all(pooled <= values.max(axis=1) + 1e-9)
        assert np.all(pooled >= values.mean(axis=1) - 1e-9)
