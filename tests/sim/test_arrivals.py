"""Tests for arrival processes and load schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arrivals import LoadSchedule, generate_poisson_arrivals


class TestLoadSchedule:
    def test_constant(self):
        s = LoadSchedule.constant(100.0)
        assert s.rate_at(0.0) == 100.0
        assert s.rate_at(1e6) == 100.0

    def test_steps(self):
        s = LoadSchedule(((0.0, 10.0), (1.0, 20.0)))
        assert s.rate_at(0.5) == 10.0
        assert s.rate_at(1.0) == 20.0
        assert s.rate_at(5.0) == 20.0

    def test_from_loads(self):
        s = LoadSchedule.from_loads([(0.0, 0.5)], saturation_qps=1000.0)
        assert s.rate_at(0.0) == pytest.approx(500.0)

    def test_mean_rate(self):
        s = LoadSchedule(((0.0, 10.0), (1.0, 30.0)))
        assert s.mean_rate(2.0) == pytest.approx(20.0)

    def test_mean_rate_partial_interval(self):
        s = LoadSchedule(((0.0, 10.0), (10.0, 99.0)))
        assert s.mean_rate(5.0) == pytest.approx(10.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LoadSchedule(())

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            LoadSchedule(((1.0, 10.0),))

    def test_rejects_unsorted_steps(self):
        with pytest.raises(ValueError):
            LoadSchedule(((0.0, 1.0), (2.0, 2.0), (1.0, 3.0)))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LoadSchedule(((0.0, -1.0),))

    def test_rejects_bad_saturation(self):
        with pytest.raises(ValueError):
            LoadSchedule.from_loads([(0.0, 0.5)], saturation_qps=0.0)


class TestPoissonArrivals:
    def test_count_and_monotonicity(self):
        rng = np.random.default_rng(0)
        arr = generate_poisson_arrivals(LoadSchedule.constant(1000.0),
                                        500, rng)
        assert len(arr) == 500
        assert np.all(np.diff(arr) >= 0)

    def test_rate_matches(self):
        rng = np.random.default_rng(1)
        arr = generate_poisson_arrivals(LoadSchedule.constant(1000.0),
                                        20000, rng)
        measured = len(arr) / arr[-1]
        assert measured == pytest.approx(1000.0, rel=0.05)

    def test_exponential_interarrivals(self):
        """CV of interarrival gaps should be ~1 (memoryless)."""
        rng = np.random.default_rng(2)
        arr = generate_poisson_arrivals(LoadSchedule.constant(1000.0),
                                        20000, rng)
        gaps = np.diff(arr)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)

    def test_step_change_rate(self):
        rng = np.random.default_rng(3)
        sched = LoadSchedule(((0.0, 100.0), (10.0, 1000.0)))
        arr = generate_poisson_arrivals(sched, 20000, rng)
        before = np.sum(arr < 10.0)
        # ~1000 arrivals in the first 10 s at rate 100
        assert before == pytest.approx(1000, rel=0.2)

    def test_zero_rate_interval_skipped(self):
        rng = np.random.default_rng(4)
        sched = LoadSchedule(((0.0, 0.0), (1.0, 1000.0)))
        arr = generate_poisson_arrivals(sched, 100, rng)
        assert arr[0] >= 1.0

    def test_zero_rate_forever_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            generate_poisson_arrivals(LoadSchedule.constant(0.0), 10, rng)

    def test_rejects_bad_count(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            generate_poisson_arrivals(LoadSchedule.constant(1.0), 0, rng)

    def test_deterministic_given_seed(self):
        a = generate_poisson_arrivals(LoadSchedule.constant(100.0), 50,
                                      np.random.default_rng(7))
        b = generate_poisson_arrivals(LoadSchedule.constant(100.0), 50,
                                      np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=30, deadline=None)
    def test_always_sorted(self, n, rate):
        rng = np.random.default_rng(42)
        arr = generate_poisson_arrivals(LoadSchedule.constant(rate), n, rng)
        assert np.all(np.diff(arr) >= 0)


def reference_arrivals(schedule, num_requests, rng):
    """The generator's per-request loop, kept as the reference for its
    one-draw constant-rate path."""
    arrivals = np.empty(num_requests)
    t = 0.0
    step_idx = 0
    steps = list(schedule.steps)
    for i in range(num_requests):
        work = rng.exponential(1.0)
        while True:
            rate = steps[step_idx][1]
            next_change = (
                steps[step_idx + 1][0] if step_idx + 1 < len(steps) else np.inf
            )
            if rate <= 0:
                t = next_change
                step_idx += 1
                continue
            dt = work / rate
            if t + dt <= next_change:
                t += dt
                break
            work -= (next_change - t) * rate
            t = next_change
            step_idx += 1
        arrivals[i] = t
    return arrivals


@given(seed=st.integers(0, 2**32 - 1),
       rate=st.floats(1e-3, 1e7),
       n=st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_constant_rate_draws_equal_the_loop(seed, rate, n):
    """One exponential draw of n, cumsummed, gives the loop's floats and
    leaves the generator in the loop's state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_poisson_arrivals(LoadSchedule.constant(rate), n, rng)
    want = reference_arrivals(LoadSchedule.constant(rate), n, ref_rng)
    np.testing.assert_array_equal(got, want)
    assert rng.random() == ref_rng.random()


def test_stepped_schedule_equals_the_loop():
    sched = TestPoissonZeroRateAndStepBoundaries.SCHED
    got = generate_poisson_arrivals(sched, 3000, np.random.default_rng(17))
    want = reference_arrivals(sched, 3000, np.random.default_rng(17))
    np.testing.assert_array_equal(got, want)


class TestPoissonZeroRateAndStepBoundaries:
    """Fig. 10 load-step path: zero-rate gaps and exact step boundaries,
    cross-checked against the schedule's own rate_at/mean_rate."""

    SCHED = LoadSchedule(((0.0, 800.0), (1.0, 0.0), (2.5, 400.0)))

    def test_rate_at_agrees_with_empirical_counts(self):
        rng = np.random.default_rng(11)
        arr = generate_poisson_arrivals(self.SCHED, 4000, rng)
        for lo, hi in ((0.0, 1.0), (1.0, 2.5), (2.5, 4.0)):
            count = int(np.sum((arr >= lo) & (arr < hi)))
            mid_rate = self.SCHED.rate_at((lo + hi) / 2.0)
            expected = mid_rate * (hi - lo)
            if expected == 0:
                assert count == 0  # the zero-rate gap produces nothing
            else:
                assert count == pytest.approx(expected, rel=0.15)

    def test_zero_rate_gap_is_empty_and_resumes_at_boundary(self):
        rng = np.random.default_rng(12)
        arr = generate_poisson_arrivals(self.SCHED, 3000, rng)
        in_gap = arr[(arr >= 1.0) & (arr < 2.5)]
        assert in_gap.size == 0
        # Memorylessness: the first post-gap arrival lands exp(1/rate)
        # after the 2.5 s boundary, so typically within a few gaps.
        after = arr[arr >= 2.5]
        assert after.size > 0
        assert after[0] - 2.5 < 0.1

    def test_arrival_exactly_at_step_uses_new_rate_like_rate_at(self):
        """rate_at(t) returns the *new* rate at a step time t; the
        generator's interval logic must agree (work crossing a boundary
        is rescaled to the rate in force from that boundary on)."""
        sched = LoadSchedule(((0.0, 1e-9), (10.0, 1e6)))
        assert sched.rate_at(10.0) == 1e6
        rng = np.random.default_rng(13)
        arr = generate_poisson_arrivals(sched, 500, rng)
        # At a femto-rate before the step, effectively every arrival is
        # pushed past the boundary and drawn at the fast rate.
        assert arr[0] >= 10.0
        assert np.all(arr >= 10.0)
        assert arr[-1] - 10.0 < 0.1  # 500 arrivals at 1e6/s: ~0.5 ms

    def test_mean_rate_matches_overall_throughput(self):
        rng = np.random.default_rng(14)
        arr = generate_poisson_arrivals(self.SCHED, 4000, rng)
        horizon = float(arr[-1])
        measured = len(arr) / horizon
        assert measured == pytest.approx(self.SCHED.mean_rate(horizon),
                                         rel=0.1)

    def test_consecutive_zero_rate_intervals_skipped(self):
        sched = LoadSchedule(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 50.0)))
        rng = np.random.default_rng(15)
        arr = generate_poisson_arrivals(sched, 50, rng)
        assert arr[0] >= 3.0

    def test_trailing_zero_rate_exhausts_with_clear_error(self):
        sched = LoadSchedule(((0.0, 1000.0), (0.01, 0.0)))
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="zero forever"):
            generate_poisson_arrivals(sched, 100, rng)
