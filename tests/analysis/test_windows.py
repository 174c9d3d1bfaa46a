"""Tests for rolling-window estimators."""

import numpy as np
import pytest

from repro.analysis.windows import (
    RollingTailEstimator,
    instantaneous_qps,
    windowed_series,
)


class TestRollingTailEstimator:
    def test_empty_returns_none(self):
        est = RollingTailEstimator(1.0)
        assert est.tail() is None

    def test_single_sample(self):
        est = RollingTailEstimator(1.0)
        est.observe(0.0, 5.0)
        assert est.tail() == pytest.approx(5.0)

    def test_eviction(self):
        est = RollingTailEstimator(1.0)
        est.observe(0.0, 100.0)
        est.observe(2.0, 1.0)
        assert est.tail() == pytest.approx(1.0)
        assert est.count() == 1

    def test_tail_with_explicit_now(self):
        est = RollingTailEstimator(1.0)
        est.observe(0.0, 1.0)
        assert est.tail(now=5.0) is None

    def test_percentile(self):
        est = RollingTailEstimator(100.0, pct=50.0)
        for i in range(11):
            est.observe(float(i), float(i))
        assert est.tail() == pytest.approx(5.0)

    def test_rejects_out_of_order(self):
        est = RollingTailEstimator(1.0)
        est.observe(5.0, 1.0)
        with pytest.raises(ValueError):
            est.observe(1.0, 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RollingTailEstimator(0.0)

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf")])
    def test_rejects_non_finite_window(self, window_s):
        """A NaN window would never evict (every ``<`` against it is
        false), and an infinite one never evicts either."""
        with pytest.raises(ValueError, match="window_s"):
            RollingTailEstimator(window_s)


class TestWindowedSeries:
    def test_tumbling_windows(self):
        # Power-of-two timestamps keep window edges float-exact.
        ts = [0.25, 0.5, 1.5, 1.75]
        vs = [1.0, 2.0, 3.0, 4.0]
        t, v = windowed_series(ts, vs, window_s=1.0, reducer=np.mean)
        assert len(t) == 2
        assert v[0] == pytest.approx(1.5)   # window ending 1.25
        assert v[1] == pytest.approx(3.5)   # window ending 2.25

    def test_empty_input(self):
        t, v = windowed_series([], [], 1.0)
        assert len(t) == 0

    def test_default_reducer_is_p95(self):
        ts = np.linspace(0, 0.9, 100)
        vs = np.arange(100.0)
        t, v = windowed_series(ts, vs, window_s=1.0)
        assert v[0] == pytest.approx(np.percentile(vs, 95))

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            windowed_series([1], [1, 2], 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            windowed_series([1], [1], 0.0)

    def test_sliding_step(self):
        ts = np.linspace(0, 2, 50)
        vs = np.ones(50)
        t, v = windowed_series(ts, vs, window_s=1.0, step_s=0.5,
                               reducer=np.mean)
        assert len(t) > 2  # overlapping windows


class TestInstantaneousQps:
    def test_uniform_rate(self):
        # 1000 arrivals at 1 kHz -> instantaneous QPS ~1000 within window
        ts = np.arange(0, 1, 0.001)
        qps = instantaneous_qps(ts, window_s=5e-3)
        assert np.median(qps) == pytest.approx(1000, rel=0.25)

    def test_empty(self):
        assert len(instantaneous_qps([])) == 0

    def test_burst_detected(self):
        ts = np.concatenate([np.arange(0, 1, 0.01),
                             np.full(50, 1.0)])  # burst at t=1
        qps = instantaneous_qps(ts, window_s=5e-3)
        assert qps.max() > 50 / 5e-3 * 0.9

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            instantaneous_qps([1.0], window_s=0.0)
