"""Drift detectors: closed-form math, monitor lifecycle, export."""

import math
import random

import pytest

from repro.obs import MetricsRegistry, render_prometheus
from repro.obs.drift import (
    DriftMonitor,
    DriftThresholds,
    bin_fractions,
    ks_statistic,
    mean_shift_zscore,
    psi,
)


class TestPsi:
    def test_closed_form_two_bins(self):
        # sum((o-e)*ln(o/e)): (0.25-0.5)ln(0.5) + (0.75-0.5)ln(1.5)
        expected = -0.25 * math.log(0.5) + 0.25 * math.log(1.5)
        assert psi([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected)

    def test_identical_distributions_score_zero(self):
        assert psi([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == pytest.approx(0.0)

    def test_symmetric(self):
        a, b = [0.1, 0.9], [0.4, 0.6]
        assert psi(a, b) == pytest.approx(psi(b, a))

    def test_counts_normalize_like_fractions(self):
        assert psi([20, 30, 50], [10, 30, 60]) == pytest.approx(
            psi([0.2, 0.3, 0.5], [0.1, 0.3, 0.6])
        )

    def test_empty_bin_is_floored_not_infinite(self):
        value = psi([0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(value) and value > 0.2

    def test_mismatched_bins_raise(self):
        with pytest.raises(ValueError):
            psi([0.5, 0.5], [1.0])

    def test_zero_mass_raises(self):
        with pytest.raises(ValueError):
            psi([0.0, 0.0], [0.5, 0.5])


class TestKsStatistic:
    def test_identical_samples_score_zero(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert ks_statistic(sample, sample) == 0.0

    def test_identical_constant_streams_score_zero(self):
        # Ties must advance both sides: a constant signal equal to its
        # reference is the no-drift case, not maximal drift.
        assert ks_statistic([5.0] * 100, [5.0] * 40) == 0.0

    def test_disjoint_samples_score_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_closed_form_with_ties(self):
        # F_ref jumps to 0.5 at 1, 1.0 at 2; F_live to 0.25 at 1,
        # 1.0 at 2 -> sup gap 0.25 just after value 1.
        assert ks_statistic([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 2.0, 2.0]) == (
            pytest.approx(0.25)
        )

    def test_half_shifted(self):
        # live = reference shifted so half the mass moves past the max
        assert ks_statistic([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]) == (
            pytest.approx(0.5)
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])


class TestMeanShiftZscore:
    def test_closed_form(self):
        # (11-10)/sqrt(4/100 + 9/400) = 1/0.25
        assert mean_shift_zscore(10.0, 4.0, 100, 11.0, 9.0, 400) == (
            pytest.approx(4.0)
        )

    def test_identical_constants_score_zero(self):
        assert mean_shift_zscore(5.0, 0.0, 10, 5.0, 0.0, 10) == 0.0

    def test_shifted_constants_score_inf(self):
        assert mean_shift_zscore(5.0, 0.0, 10, 6.0, 0.0, 10) == math.inf
        assert mean_shift_zscore(5.0, 0.0, 10, 4.0, 0.0, 10) == -math.inf

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            mean_shift_zscore(0.0, 1.0, 0, 0.0, 1.0, 5)


class TestBinFractions:
    def test_partition_covers_open_outer_bins(self):
        fractions = bin_fractions([0.5, 1.5, 2.5, 99.0], [1.0, 2.0])
        assert fractions == [0.25, 0.25, 0.5]

    def test_boundary_goes_to_lower_bin(self):
        assert bin_fractions([1.0], [1.0, 2.0]) == [1.0, 0.0, 0.0]

    def test_empty_values(self):
        assert bin_fractions([], [1.0]) == [0.0, 0.0]


class TestDriftMonitor:
    def test_warming_until_reference_and_min_live(self):
        monitor = DriftMonitor("sig", warmup=10, window=10, min_live=5)
        monitor.observe_many(range(9))
        assert monitor.warming
        assert monitor.result().status == "warming"
        monitor.observe(9.0)  # freezes the reference
        assert monitor.warming  # live window still empty
        monitor.observe_many(range(5))
        assert not monitor.warming
        assert monitor.result().status in ("ok", "drift")

    def test_stationary_stream_stays_ok(self):
        # Zero false positives at default thresholds on a stationary
        # stream: one seeded gaussian, reference then live.
        rng = random.Random(7)
        monitor = DriftMonitor("sig", warmup=200, window=200)
        for _ in range(600):
            monitor.observe(rng.gauss(10.0, 2.0))
            result = monitor.result()
            assert result.status != "drift", result.breached
        final = monitor.result()
        assert final.status == "ok"
        assert final.psi < 0.2 and final.ks < 0.2

    def test_injected_mean_shift_is_detected(self):
        rng = random.Random(11)
        monitor = DriftMonitor("sig", warmup=200, window=200)
        for _ in range(200):
            monitor.observe(rng.gauss(10.0, 2.0))
        for _ in range(200):
            monitor.observe(rng.gauss(16.0, 2.0))  # 3 sigma shift
        result = monitor.result()
        assert result.drifted
        assert "mean" in result.breached
        assert result.mean_zscore > 4.0

    def test_injected_variance_blowup_is_detected(self):
        rng = random.Random(13)
        monitor = DriftMonitor("sig", warmup=200, window=200)
        for _ in range(200):
            monitor.observe(rng.gauss(10.0, 1.0))
        for _ in range(200):
            monitor.observe(rng.gauss(10.0, 4.0))  # 16x variance
        result = monitor.result()
        assert result.drifted
        assert "variance" in result.breached

    def test_direction_up_ignores_downward_shift(self):
        thresholds = DriftThresholds(
            psi=math.inf, ks=math.inf, mean_sigmas=3.0, var_ratio=math.inf
        )
        down = DriftMonitor(
            "sig", warmup=10, window=10, min_live=5,
            thresholds=thresholds, direction="up",
        )
        both = DriftMonitor(
            "sig", warmup=10, window=10, min_live=5, thresholds=thresholds,
        )
        for monitor in (down, both):
            monitor.observe_many([10.0 + 0.1 * i for i in range(10)])
            monitor.observe_many([1.0 + 0.1 * i for i in range(10)])
        assert not down.result().drifted  # falling = converging
        assert both.result().drifted

    def test_inf_threshold_disables_detector(self):
        thresholds = DriftThresholds(
            psi=math.inf, ks=math.inf, mean_sigmas=math.inf,
            var_ratio=math.inf,
        )
        monitor = DriftMonitor(
            "sig", warmup=10, window=10, min_live=5, thresholds=thresholds
        )
        monitor.observe_many(range(10))
        monitor.observe_many([500.0 + i for i in range(10)])
        assert monitor.result().status == "ok"

    def test_result_as_dict_cleans_non_finite(self):
        monitor = DriftMonitor("sig", warmup=5, window=5, min_live=2)
        payload = monitor.result().as_dict()
        assert payload["status"] == "warming"
        assert payload["psi"] is None and payload["ks"] is None

    def test_export_writes_drift_gauges(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor("scores", warmup=5, window=5, min_live=2)
        monitor.observe_many([1.0, 2.0, 3.0, 4.0, 5.0, 2.0, 3.0])
        monitor.export(registry)
        by_name = {
            (record["name"], record["tags"].get("monitor")): record
            for record in registry.snapshot()
        }
        for family in (
            "repro_drift_psi",
            "repro_drift_ks",
            "repro_drift_mean_zscore",
            "repro_drift_var_ratio",
            "repro_drift_ok",
            "repro_drift_live_samples",
        ):
            assert (family, "scores") in by_name
        assert by_name[("repro_drift_ok", "scores")]["value"] == 1.0
        text = render_prometheus(registry.snapshot())
        assert 'repro_drift_psi{monitor="scores"}' in text

    def test_export_while_warming_reads_healthy(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor("scores", warmup=5, window=5, min_live=2)
        monitor.export(registry)
        records = {r["name"]: r["value"] for r in registry.snapshot()}
        assert records["repro_drift_ok"] == 1.0
        assert records["repro_drift_psi"] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup": 1},
            {"window": 1},
            {"bins": 1},
            {"min_live": 1},
            {"min_live": 500},
            {"direction": "sideways"},
        ],
    )
    def test_bad_construction_raises(self, kwargs):
        with pytest.raises(ValueError):
            DriftMonitor("sig", **kwargs)
