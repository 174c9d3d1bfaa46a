"""Tests for the PI latency-target trimmer."""

import pytest

from repro.core.feedback import LatencyTargetTrimmer


def feed(trimmer, latency, n=200, start=0.0, rate=1000.0):
    """Feed n completions with constant latency at the given rate."""
    t = start
    for _ in range(n):
        trimmer.observe(t, latency)
        t += 1.0 / rate
    return t


class TestTrimming:
    def test_relaxes_when_tail_below_bound(self):
        tr = LatencyTargetTrimmer(bound_s=1e-3)
        feed(tr, 0.5e-3)
        assert tr.internal_target_s > 1e-3

    def test_tightens_when_tail_above_bound(self):
        tr = LatencyTargetTrimmer(bound_s=1e-3)
        feed(tr, 1.5e-3)
        assert tr.internal_target_s < 1e-3

    def test_clamped_above(self):
        tr = LatencyTargetTrimmer(bound_s=1e-3, max_scale=1.5)
        feed(tr, 0.01e-3, n=5000)
        assert tr.internal_target_s <= 1.5e-3 + 1e-12

    def test_clamped_below(self):
        tr = LatencyTargetTrimmer(bound_s=1e-3, min_scale=0.8)
        feed(tr, 10e-3, n=5000)
        assert tr.internal_target_s >= 0.8e-3 - 1e-12

    def test_antiwindup_recovers_quickly(self):
        """After a long period pinned at the clamp, a reversal pulls the
        target back within a handful of adjustment periods."""
        tr = LatencyTargetTrimmer(bound_s=1e-3, max_scale=1.5)
        t = feed(tr, 0.01e-3, n=5000)  # pinned at max
        feed(tr, 3e-3, n=2000, start=t)  # now violating hard
        assert tr.internal_target_s < 1.2e-3

    def test_no_adjustment_below_min_samples(self):
        tr = LatencyTargetTrimmer(bound_s=1e-3, min_window_samples=50)
        feed(tr, 0.1e-3, n=20)
        assert tr.internal_target_s == pytest.approx(1e-3)

    def test_stable_at_bound(self):
        """Measured tail == bound -> target stays ~unchanged."""
        tr = LatencyTargetTrimmer(bound_s=1e-3)
        feed(tr, 1e-3, n=2000)
        assert tr.internal_target_s == pytest.approx(1e-3, rel=0.05)


class TestValidation:
    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            LatencyTargetTrimmer(bound_s=0.0)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(bound_s=float("nan")), "bound_s"),
        (dict(window_s=float("nan")), "window_s"),
        (dict(window_s=0.0), "window_s"),
        (dict(adjust_period_s=0.0), "adjust_period_s"),
        (dict(adjust_period_s=float("nan")), "adjust_period_s"),
        (dict(max_scale=float("nan")), "max_scale"),
        (dict(min_scale=float("inf")), "min_scale"),
        (dict(kp=float("inf")), "kp"),
        (dict(ki=float("nan")), "ki"),
        (dict(min_window_samples=0), "min_window_samples"),
        (dict(min_window_samples=2.5), "min_window_samples"),
    ])
    def test_rejects_non_finite_or_out_of_range(self, kwargs, name):
        args = dict(bound_s=1e-3)
        args.update(kwargs)
        with pytest.raises(ValueError, match=name):
            LatencyTargetTrimmer(**args)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            LatencyTargetTrimmer(bound_s=1.0, min_scale=2.0, max_scale=1.0)
