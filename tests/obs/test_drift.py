"""Drift detector: closed-form math, monitor lifecycle, export."""

import math
import random

import pytest

from repro.obs.drift import DriftMonitor, mean_shift_zscore
from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry


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


class TestDriftMonitor:
    def test_warming_until_reference_and_a_full_live_window(self):
        monitor = DriftMonitor("sig", window=10)
        for value in range(9):
            monitor.observe(value)
        assert monitor.result().status == "warming"
        monitor.observe(9.0)  # freezes the reference
        assert monitor.result().status == "warming"  # live window still empty
        for value in range(9):
            monitor.observe(value)
        # 2 * window - 1 observations: one short of a full live window.
        assert monitor.observed == 19
        assert monitor.result().status == "warming"
        monitor.observe(9.0)
        result = monitor.result()
        assert result.status == "ok"
        assert result.live_samples == 10
        assert result.mean_zscore == 0.0

    @pytest.mark.parametrize("window", [2, 64])
    def test_first_verdict_at_twice_the_window(self, window):
        # A step the reference never saw: the one observation that fills
        # the live window turns "warming" into "drift", no earlier.
        monitor = DriftMonitor("sig", window=window)
        for _ in range(window):
            monitor.observe(0.0)
        for _ in range(window - 1):
            monitor.observe(1.0)
            assert monitor.result().status == "warming"
        monitor.observe(1.0)
        assert monitor.observed == 2 * window
        assert monitor.result().status == "drift"

    def test_stationary_stream_stays_ok(self):
        # Zero false positives at default thresholds on a stationary
        # stream: one seeded gaussian, reference then live.
        rng = random.Random(7)
        monitor = DriftMonitor("sig", window=200)
        for _ in range(600):
            monitor.observe(rng.gauss(10.0, 2.0))
            result = monitor.result()
            assert result.status != "drift", result.mean_zscore
        final = monitor.result()
        assert final.status == "ok"
        assert abs(final.mean_zscore) < 4.0

    def test_injected_mean_shift_is_detected(self):
        rng = random.Random(11)
        monitor = DriftMonitor("sig", window=200)
        for _ in range(200):
            monitor.observe(rng.gauss(10.0, 2.0))
        for _ in range(200):
            monitor.observe(rng.gauss(16.0, 2.0))  # 3 sigma shift
        result = monitor.result()
        assert result.drifted
        assert result.mean_zscore > 4.0

    def test_export_writes_drift_gauges(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor("scores", window=5)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 2.0, 3.0, 4.0, 3.0, 3.0):
            monitor.observe(value)
        monitor.export(registry)
        by_name = {
            (record["name"], record["tags"].get("monitor")): record
            for record in registry.snapshot()
        }
        assert {name for name, _ in by_name} == {
            "repro_drift_mean_zscore",
            "repro_drift_ok",
            "repro_drift_live_samples",
        }
        assert by_name[("repro_drift_ok", "scores")]["value"] == 1.0
        assert by_name[("repro_drift_live_samples", "scores")]["value"] == 5
        text = render_prometheus(registry.snapshot())
        assert 'repro_drift_mean_zscore{monitor="scores"}' in text

    def test_export_while_warming_reads_healthy(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor("scores", window=5)
        monitor.export(registry)
        records = {r["name"]: r["value"] for r in registry.snapshot()}
        assert records["repro_drift_ok"] == 1.0
        assert records["repro_drift_mean_zscore"] == 0.0

    @pytest.mark.parametrize("live, text", [(40.0, "-Inf"), (120.0, "+Inf")])
    def test_export_keeps_an_infinite_zscore(self, live, text):
        # A constant stream that steps to another constant has zero
        # spread: the z-score is infinite, and a breach must not read 0.
        registry = MetricsRegistry()
        monitor = DriftMonitor("serving_user_norms", window=64)
        for value in [80.0] * 64 + [live] * 64:
            monitor.observe(value)
        assert monitor.result().status == "drift"
        monitor.export(registry)
        records = {r["name"]: r["value"] for r in registry.snapshot()}
        assert records["repro_drift_ok"] == 0.0
        assert records["repro_drift_mean_zscore"] == math.copysign(math.inf, live - 80.0)
        rendered = render_prometheus(registry.snapshot())
        assert f'repro_drift_mean_zscore{{monitor="serving_user_norms"}} {text}' in rendered

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"window": 0},
            {"warmup": 64, "window": 64},
            {"window": 64, "min_live": 16},
        ],
    )
    def test_bad_construction_raises(self, kwargs):
        # A window below 2 is a ValueError; the retired warmup= and
        # min_live= are no keywords at all.
        with pytest.raises(ValueError if set(kwargs) == {"window"} else TypeError):
            DriftMonitor("sig", **kwargs)
