"""The histogram's quantile sketch vs exact percentiles.

The sketch's guarantee (``repro.obs.registry.Histogram``): for values
``>= 0``, every reported quantile is within ``SKETCH_ALPHA`` (relative)
of ``numpy.percentile`` of the values observed, and inside
``[min, max]``.  The two classes named after P² — the estimator the
sketch replaced — now hold the sketch to that guarantee on the streams
that used to stress P²'s markers.
"""

import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import SKETCH_ALPHA, Histogram

QS = (0.5, 0.95, 0.99)


def histogram_of(stream):
    histogram = Histogram()
    for value in stream:
        histogram.observe(value)
    return histogram


def estimate(stream, q):
    return histogram_of(stream).quantile(q)


def exact(stream, q):
    return float(np.percentile(stream, q * 100.0))


def assert_within_alpha(stream, q, value):
    want = exact(stream, q)
    # 1e-9: the ulps by which two evaluations of one interpolation differ
    assert abs(value - want) <= SKETCH_ALPHA * abs(want) * (1 + 1e-9), (
        f"q={q}: {value} is not within {SKETCH_ALPHA} of {want}"
    )
    assert min(stream) <= value <= max(stream)


def rank_of(stream, value):
    """Fraction of the stream at or below ``value``."""
    return sum(1 for v in stream if v <= value) / len(stream)


class TestP2Exact:
    """Small streams: numpy's interpolated percentile, within α."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_small_streams_match_numpy(self, n, q):
        rng = random.Random(n * 100 + int(q * 100))
        stream = [rng.random() for _ in range(n)]
        assert_within_alpha(stream, q, estimate(stream, q))

    def test_empty_estimator_is_nan(self):
        histogram = Histogram()
        assert all(math.isnan(histogram.quantile(q)) for q in QS)
        assert all(math.isnan(v) for v in histogram.percentiles().values())

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_out_of_open_interval_rejected(self, q):
        with pytest.raises(ValueError):
            Histogram().quantile(q)


class TestP2Adversarial:
    """Accuracy on streams chosen to stress a streaming estimator.

    The estimate's *rank* (fraction of the stream at or below it) must
    land near the requested quantile — a distribution-free check — and
    its value within α of the exact percentile.
    """

    def assert_rank_close(self, stream, tolerance=0.03):
        for q in QS:
            value = estimate(stream, q)
            assert_within_alpha(stream, q, value)
            assert abs(rank_of(stream, value) - q) <= tolerance, (
                f"q={q}: estimate {value} has rank {rank_of(stream, value)}"
            )

    def test_uniform_stream(self):
        rng = random.Random(7)
        self.assert_rank_close([rng.random() for _ in range(2000)])

    def test_heavy_tailed_stream(self):
        # Lognormal with sigma=2: the p99 is ~80x the median, the kind
        # of tail serving latency actually has.
        rng = random.Random(11)
        self.assert_rank_close(
            [rng.lognormvariate(0.0, 2.0) for _ in range(2000)]
        )

    def test_sorted_ascending_stream(self):
        self.assert_rank_close([float(i) for i in range(1, 1001)])

    def test_sorted_descending_stream(self):
        self.assert_rank_close([float(i) for i in range(1000, 0, -1)])

    def test_constant_stream_is_exact(self):
        stream = [3.25] * 500
        for q in QS:
            assert estimate(stream, q) == 3.25

    def test_bimodal_stream_picks_a_mode(self):
        # 90% fast / 10% slow: no value between the modes is invented
        # for the extreme quantiles.
        rng = random.Random(13)
        stream = [0.001 if rng.random() < 0.9 else 1.0 for _ in range(2000)]
        assert estimate(stream, 0.5) == pytest.approx(0.001, rel=SKETCH_ALPHA)
        assert estimate(stream, 0.99) == pytest.approx(1.0, rel=SKETCH_ALPHA)

    def test_ascending_matches_numpy_closely(self):
        stream = [float(i) for i in range(1, 1001)]
        for q in QS:
            assert_within_alpha(stream, q, estimate(stream, q))


positive = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def streams(draw):
    """Constant, sorted either way, bimodal, lognormal (σ = 2), any of
    them with zeros mixed in."""
    shape = draw(st.sampled_from(["constant", "up", "down", "bimodal", "lognormal"]))
    size = draw(st.integers(1, 400))
    if shape == "constant":
        stream = [draw(positive)] * size
    elif shape in ("up", "down"):
        stream = sorted(draw(st.lists(positive, min_size=1, max_size=size)))
        stream = stream if shape == "up" else stream[::-1]
    elif shape == "bimodal":
        fast, slow = draw(positive), draw(positive)
        picks = draw(st.lists(st.booleans(), min_size=1, max_size=size))
        stream = [slow if pick else fast for pick in picks]
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        stream = np.random.default_rng(seed).lognormal(0.0, 2.0, size).tolist()
    zeros = draw(st.integers(0, 3))
    for _ in range(zeros):
        stream.insert(draw(st.integers(0, len(stream))), 0.0)
    return stream


class TestSketchGuarantee:
    @settings(max_examples=200, deadline=None)
    @given(streams())
    def test_every_reported_quantile_is_within_alpha(self, stream):
        histogram = histogram_of(stream)
        percentiles = histogram.percentiles()
        for q in QS:
            assert_within_alpha(stream, q, histogram.quantile(q))
            assert percentiles[f"p{q * 100:g}"] == histogram.quantile(q)

    @settings(deadline=None)
    @given(streams(), st.lists(st.integers(0, 10**6), max_size=5))
    def test_nan_and_infinity_are_dropped_whole(self, stream, positions):
        polluted = list(stream)
        for position, value in zip(positions, [math.nan, math.inf, -math.inf] * 2):
            polluted.insert(position % (len(polluted) + 1), value)
        histogram, clean = histogram_of(polluted), histogram_of(stream)
        assert histogram.percentiles() == clean.percentiles()
        assert (histogram.count, histogram.sum) == (clean.count, clean.sum)
        assert (histogram.min, histogram.max) == (clean.min, clean.max)

    @settings(deadline=None)
    @given(streams().filter(lambda s: len(s) >= 3), st.floats(-1e3, -1e-6))
    def test_a_negative_value_does_not_poison_the_quantiles(self, stream, negative):
        stream = [negative, *stream]
        histogram = histogram_of(stream)
        for q in QS:
            assert_within_alpha(stream, q, histogram.quantile(q))
        assert histogram.min == negative

    def test_zero_and_negative_values_read_as_zero_within_min_max(self):
        assert estimate([0.0] * 5, 0.5) == 0.0
        assert estimate([-2.0, -1.0], 0.5) == -1.0  # 0, clamped to max
        assert estimate([-2.0, 0.0, 4.0], 0.5) == 0.0

    @pytest.mark.threads
    def test_reads_beside_concurrent_observes(self):
        """A snapshot reads quantiles while serving threads observe: new
        sketch keys appear mid-read, and every read must still return
        values inside the range observed."""
        histogram = Histogram()
        stop = threading.Event()
        errors = []

        def observe(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    histogram.observe(rng.lognormvariate(-7.0, 2.0))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=observe, args=(seed,)) for seed in range(4)]
        try:
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for value in histogram.percentiles().values():
                    assert math.isnan(value) or 0.0 < value <= histogram.max
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert histogram.count > 0

    def test_extreme_finite_values_never_raise(self):
        for stream in ([1.7e308, 1.79e308], [5e-324, 1e-310], [5e-324, 1.79e308]):
            histogram = histogram_of(stream)
            for value in histogram.percentiles().values():
                assert min(stream) <= value <= max(stream)

