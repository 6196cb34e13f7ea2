"""Property-based tests of batching and pooling invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extraction import ConvExtractionModule
from repro.nn.batching import pad_batch, window_mask
from repro.nn.layers import Embedding
from repro.nn.params import ParamStore
from repro.nn.pooling import log_sum_exp_pool, pooling_weights
from repro.text.vocab import PAD_ID, UNK_ID
from tests.reference import extraction_oracle

sequences = st.lists(
    st.lists(st.integers(1, 50), max_size=12).map(
        lambda items: np.asarray(items, dtype=np.int64)
    ),
    min_size=1,
    max_size=6,
)


def _segment_masks(batch, valid):
    """Each document's slice of a ``window_mask`` column."""
    bounds = list(batch.starts[1:]) + [len(valid)]
    return [valid[start:stop] for start, stop in zip(batch.starts, bounds)]


class TestPadBatchProperties:
    @given(sequences, st.integers(1, 5))
    def test_mask_marks_exactly_the_real_tokens(self, seqs, window):
        batch = pad_batch(seqs, window)
        for start, seq in zip(batch.starts, seqs):
            expected = seq if len(seq) else [UNK_ID]  # empty → single UNK
            stop = start + len(expected)
            assert batch.mask[start:stop].all()
            assert batch.ids[start:stop].tolist() == list(expected)
            assert not batch.mask[stop : stop + window - 1].any()
            assert np.all(batch.ids[stop : stop + window - 1] == PAD_ID)

    @given(sequences, st.integers(1, 5))
    def test_stream_is_documents_and_gaps(self, seqs, window):
        batch = pad_batch(seqs, window)
        lengths = [max(1, len(seq)) for seq in seqs]
        assert batch.ids.shape == batch.mask.shape
        assert len(batch.ids) == sum(lengths) + len(seqs) * (window - 1)
        assert batch.starts.tolist() == list(
            np.cumsum([0] + [n + window - 1 for n in lengths[:-1]])
        )

    @given(sequences, st.integers(1, 4))
    def test_window_count_formula(self, seqs, window):
        batch = pad_batch(seqs, window)
        valid = window_mask(batch, (window,))[:, 0]
        for seq, segment in zip(seqs, _segment_masks(batch, valid)):
            n = max(1, len(seq))
            assert segment.sum() == max(1, n - window + 1)
            assert segment[: max(1, n - window + 1)].all()

    @given(sequences, st.integers(1, 4), st.integers(0, 6))
    def test_window_mask_invariant_to_extra_padding(
        self, seqs, window, extra
    ):
        tight = pad_batch(seqs, window)
        loose = pad_batch(seqs, window + extra)
        tight_segments = _segment_masks(tight, window_mask(tight, (window,))[:, 0])
        loose_segments = _segment_masks(loose, window_mask(loose, (window,))[:, 0])
        for narrow, wide in zip(tight_segments, loose_segments):
            assert np.array_equal(narrow, wide[: len(narrow)])
            assert not wide[len(narrow) :].any()


documents = st.lists(
    st.lists(st.integers(2, 29), max_size=40).map(
        lambda items: np.asarray(items, dtype=np.int64)
    ),
    min_size=1,
    max_size=5,
)
window_sets = st.sets(st.integers(1, 6), min_size=1, max_size=3).map(
    lambda windows: tuple(sorted(windows))
)


class TestPackedModuleProperties:
    @settings(max_examples=40, deadline=None)
    @given(documents, window_sets, st.integers(0, 10_000))
    def test_packed_forward_equals_solo_and_oracle(self, docs, windows, seed):
        """Documents of 0-40 tokens (empty → UNK, some shorter than the
        widest window) packed together pool exactly as each one alone
        and as Eq. 2-3 written out, in float64."""
        rng = np.random.default_rng(seed)
        store = ParamStore()
        embedding = Embedding(store, "emb", num_tokens=30, dim=4, rng=rng)
        block = ConvExtractionModule(store, "conv", embedding, windows, 3, rng)
        widest = max(windows)
        packed, _ = block.forward(pad_batch(docs, widest))
        solo = np.concatenate(
            [block.forward(pad_batch([doc], widest))[0] for doc in docs]
        )
        oracle = extraction_oracle(
            embedding.table.value,
            [weight.value for weight in block.conv.weights],
            [bias.value for bias in block.conv.biases],
            windows,
            [doc if len(doc) else [UNK_ID] for doc in docs],
        )
        assert np.allclose(packed, solo, rtol=0, atol=1e-12)
        assert np.allclose(packed, oracle, rtol=0, atol=1e-12)


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
        spans = rng.integers(1, windows + 1, size=batch)
        starts = np.cumsum(spans) - spans
        values = rng.normal(size=(spans.sum(), dim))
        lengths = rng.integers(1, spans + 1)
        offsets = np.arange(spans.sum()) - np.repeat(starts, spans)
        valid = offsets < np.repeat(lengths, spans)
        pooled, cache = log_sum_exp_pool(values, valid, starts)
        weights = pooling_weights(cache)
        assert np.allclose(np.add.reduceat(weights, starts, axis=0), 1.0)
        assert np.all(weights >= 0.0)
        # Invalid windows hold (numerically) zero weight.
        assert np.all(weights[~valid] < 1e-12)
        assert np.all(np.isfinite(pooled))

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_pooling_between_mean_and_max(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(14, 3))
        valid = np.ones(14, dtype=bool)
        starts = np.array([0, 7])
        pooled, _ = log_sum_exp_pool(values.copy(), valid, starts)  # in place
        segments = values.reshape(2, 7, 3)
        assert np.all(pooled <= segments.max(axis=1) + 1e-9)
        assert np.all(pooled >= segments.mean(axis=1) - 1e-9)
