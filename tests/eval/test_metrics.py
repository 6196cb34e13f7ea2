"""Evaluation metrics: AUC, P/R curve, PR60/PR80."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata  # the reference ranks, not a runtime dependency

from repro.eval.metrics import (
    _average_ranks,
    evaluate_scores,
    pr_curve,
    roc_auc,
    roc_curve,
)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(2, size=5000).astype(float)
        scores = rng.random(5000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.03

    def test_all_tied_scores_give_half(self):
        labels = np.array([0, 1, 0, 1])
        assert roc_auc(labels, np.zeros(4)) == 0.5

    def test_hand_computed_case(self):
        # pairs: (pos 0.8 vs negs 0.3, 0.5) → 2 wins; (pos 0.4 vs negs) → 1 win
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.8, 0.4, 0.3, 0.5])
        assert np.isclose(roc_auc(labels, scores), 3 / 4)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.ones(3), np.arange(3.0))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            roc_auc(np.array([0.0, 2.0]), np.array([0.1, 0.2]))

    @given(
        st.lists(
            # Scores on a 2^-10 grid: the affine transform below is then
            # exact in float64, so it cannot collapse distinct scores
            # into new ties (adjacent free-form floats near the bottom
            # of the range would — AUC is only invariant under
            # transforms that preserve the tie structure).
            st.tuples(st.booleans(), st.integers(0, 1024)),
            min_size=4,
            max_size=60,
        ).filter(lambda items: 0 < sum(l for l, _ in items) < len(items))
    )
    def test_invariant_to_monotone_transform(self, items):
        labels = np.array([1.0 if label else 0.0 for label, _ in items])
        scores = np.array([grid / 1024.0 for _, grid in items])
        assert np.isclose(
            roc_auc(labels, scores), roc_auc(labels, 10.0 * scores + 3.0)
        )


@st.composite
def score_arrays(draw, min_size=1):
    """float64 or float32 scores of length ``min_size``–500: free
    floats, ±inf and ±0 mixed with a handful of repeated values, so
    most arrays hold heavy ties."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    floats = st.floats(allow_nan=False, width=np.finfo(dtype).bits)
    repeated = draw(st.lists(floats, min_size=1, max_size=6))
    elements = st.one_of(
        floats, st.sampled_from(repeated), st.sampled_from([-np.inf, np.inf, 0.0, -0.0])
    )
    return np.array(draw(st.lists(elements, min_size=min_size, max_size=500)), dtype=dtype)


def rankdata_auc(labels, scores):
    """Mann-Whitney AUC on scipy's average ranks."""
    ranks = rankdata(np.asarray(scores, dtype=np.float64))
    num_positive = int(labels.sum())
    num_negative = labels.size - num_positive
    positive_rank_sum = float(ranks[labels == 1.0].sum())
    return (positive_rank_sum - num_positive * (num_positive + 1) / 2.0) / (
        num_positive * num_negative
    )


class TestRankParity:
    """The numpy ranks equal ``scipy.stats.rankdata``'s, and ``roc_auc``
    the AUC built on them, bit for bit: tie-averaged ranks are exact
    half-integers."""

    @settings(max_examples=150, deadline=None)
    @given(score_arrays())
    def test_ranks_equal_rankdata(self, scores):
        ranks = _average_ranks(scores)
        assert ranks.dtype == np.float64
        np.testing.assert_array_equal(ranks, rankdata(scores))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_auc_equals_the_rankdata_auc(self, data):
        scores = data.draw(score_arrays(min_size=2))
        labels = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=scores.size, max_size=scores.size).filter(
                    lambda picks: 0 < sum(picks) < len(picks)
                )
            ),
            dtype=np.float64,
        )
        assert roc_auc(labels, scores) == rankdata_auc(labels, scores)


class TestPrCurve:
    def test_values_on_small_example(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        curve = pr_curve(labels, scores)
        # Thresholds descending: 0.9→P=1,R=.5 | 0.8→P=.5,R=.5 | 0.7→P=2/3,R=1 | 0.1→P=.5,R=1
        assert np.allclose(curve.precision, [1.0, 0.5, 2 / 3, 0.5])
        assert np.allclose(curve.recall, [0.5, 0.5, 1.0, 1.0])

    def test_precision_at_recall(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        curve = pr_curve(labels, scores)
        assert np.isclose(curve.precision_at(0.5), 1.0)
        assert np.isclose(curve.precision_at(0.8), 2 / 3)

    def test_ties_collapse_to_one_point(self):
        labels = np.array([1, 0, 1, 0])
        curve = pr_curve(labels, np.array([0.5, 0.5, 0.5, 0.5]))
        assert curve.precision.shape == (1,)
        assert np.isclose(curve.precision[0], 0.5)
        assert np.isclose(curve.recall[0], 1.0)

    def test_recall_monotone_nondecreasing(self, rng):
        labels = rng.integers(2, size=200).astype(float)
        labels[0] = 1.0
        scores = rng.random(200)
        curve = pr_curve(labels, scores)
        assert np.all(np.diff(curve.recall) >= -1e-12)

    def test_average_precision_bounds(self, rng):
        labels = rng.integers(2, size=100).astype(float)
        labels[:2] = [0.0, 1.0]
        scores = rng.random(100)
        ap = pr_curve(labels, scores).average_precision()
        assert 0.0 <= ap <= 1.0

    def test_needs_a_positive(self):
        with pytest.raises(ValueError, match="positive"):
            pr_curve(np.zeros(3), np.arange(3.0))

    def test_bad_target_recall_rejected(self):
        curve = pr_curve(np.array([1, 0]), np.array([0.9, 0.1]))
        with pytest.raises(ValueError, match="target recall"):
            curve.precision_at(0.0)


class TestRocCurve:
    def test_endpoints(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        fpr, tpr, _ = roc_curve(labels, scores)
        assert tpr[-1] == 1.0 and fpr[-1] == 1.0

    def test_matches_auc_by_trapezoid(self, rng):
        labels = rng.integers(2, size=300).astype(float)
        labels[:2] = [0.0, 1.0]
        scores = rng.random(300)
        fpr, tpr, _ = roc_curve(labels, scores)
        trapezoid = np.trapezoid(
            np.concatenate(([0.0], tpr)), np.concatenate(([0.0], fpr))
        )
        assert np.isclose(trapezoid, roc_auc(labels, scores), atol=1e-9)


class TestNonFiniteScores:
    LABELS = np.array([0, 1, 0, 1])

    @pytest.mark.parametrize("metric", [roc_auc, pr_curve, roc_curve, evaluate_scores])
    def test_nan_score_rejected_with_its_count(self, metric):
        with pytest.raises(ValueError, match="1 NaN of 4"):
            metric(self.LABELS, np.array([0.1, np.nan, 0.2, 0.9]))

    def test_infinite_scores_still_rank(self):
        scores = np.array([-np.inf, np.inf, 0.2, 0.9])
        assert roc_auc(self.LABELS, scores) == 1.0
        assert evaluate_scores(self.LABELS, scores).pr80 == 1.0


class TestEvaluateScores:
    def test_report_fields(self):
        labels = np.array([1, 0, 1, 0, 1])
        scores = np.array([0.9, 0.2, 0.8, 0.4, 0.7])
        report = evaluate_scores(labels, scores)
        assert report.auc == 1.0
        assert report.pr60 == 1.0 and report.pr80 == 1.0

    def test_as_row_formatting(self):
        labels = np.array([1, 0])
        report = evaluate_scores(labels, np.array([0.9, 0.1]))
        row = report.as_row("My Setting")
        assert "My Setting" in row and "1.000" in row
