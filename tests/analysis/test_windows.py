"""Tests for rolling-window estimators."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import percentile
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


def reference_windowed_series(timestamps, values, window_s, step_s=None,
                              reducer=None):
    """``windowed_series`` as it was: each window's bounds by ``bisect``
    over a fresh list copy of the sorted timestamps."""
    ts = np.asarray(timestamps, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.size == 0:
        return np.array([]), np.array([])
    step = step_s if step_s is not None else window_s
    if reducer is None:
        reducer = lambda chunk: percentile(chunk, 95.0)  # noqa: E731
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    vs = vs[order]
    out_t, out_v = [], []
    end = ts[0] + window_s
    last = ts[-1]
    while end <= last + window_s:
        lo = bisect.bisect_left(ts.tolist(), end - window_s)
        hi = bisect.bisect_right(ts.tolist(), end)
        if hi > lo:
            out_t.append(end)
            out_v.append(float(reducer(vs[lo:hi])))
        end += step
    return np.asarray(out_t), np.asarray(out_v)


def assert_same_series(args, **kwargs):
    """The returned ``t`` and ``v`` arrays equal the bisect version's,
    element for element and in dtype."""
    got = windowed_series(*args, **kwargs)
    want = reference_windowed_series(*args, **kwargs)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tolist() == w.tolist()
    return got


class TestWindowBoundsMatchBisect:
    """Window bounds come from ``searchsorted`` on the sorted array; the
    bisect-over-a-list version they replaced is the reference."""

    def test_duplicate_timestamps(self):
        ts = [0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 2.0]
        vs = [3.0, 1.0, 2.0, 7.0, 5.0, 4.0, 9.0, 8.0]
        t, v = assert_same_series((ts, vs, 0.5), step_s=0.25)
        assert len(t) > 2

    def test_samples_on_window_edges(self):
        # Power-of-two steps keep every edge float-exact, so samples sit
        # exactly on both ends of windows: both ends are inclusive.
        ts = np.arange(0.0, 4.0, 0.25)
        vs = np.arange(16.0)
        t, v = assert_same_series((ts, vs, 0.5), reducer=np.sum)
        assert t.tolist() == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert v[1] == vs[2] + vs[3] + vs[4]

    def test_step_shorter_than_window(self):
        rng = np.random.default_rng(7)
        ts = np.sort(rng.uniform(0.0, 3.0, 400))
        assert_same_series((ts, rng.exponential(1.0, 400), 0.2),
                           step_s=0.05)

    def test_single_sample(self):
        t, v = assert_same_series(([1.25], [4.0], 1.0), step_s=0.3)
        assert t.tolist() == [2.25] and v.tolist() == [4.0]

    @settings(max_examples=60, deadline=None)
    @given(ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=60),
           window=st.sampled_from([0.1, 0.25, 0.3, 1.0]),
           step=st.sampled_from([None, 0.05, 0.125, 0.7]),
           seed=st.integers(0, 2**16))
    def test_arbitrary_samples(self, ts, window, step, seed):
        vs = np.random.default_rng(seed).normal(size=len(ts))
        assert_same_series((ts, vs, window), step_s=step)


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
