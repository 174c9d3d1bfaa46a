"""Tests for the online demand profiler.

The incremental implementation (per-bucket counts + running window max
under ring-buffer append/evict) must be **bitwise**-equal to
``Histogram.from_samples`` on the window contents — the randomized
oracle below drives eviction of the maximum, exact ties, zero runs, and
width changes across regime shifts, and compares raw pmf arrays with
``assert_array_equal`` (not allclose).
"""

from collections import deque

import numpy as np
import pytest

from repro.core.histogram import Histogram
from repro.core.profiler import ZERO_MEMORY_WIDTH, DemandProfiler


class TestReadiness:
    def test_not_ready_before_min_samples(self):
        p = DemandProfiler(min_samples=5)
        for _ in range(4):
            p.observe(1e6, 1e-4)
        assert not p.ready
        assert p.snapshot() is None

    def test_ready_at_min_samples(self):
        p = DemandProfiler(min_samples=5)
        for _ in range(5):
            p.observe(1e6, 1e-4)
        assert p.ready
        assert p.snapshot() is not None

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DemandProfiler(window=0)
        with pytest.raises(ValueError):
            DemandProfiler(window=10, min_samples=20)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(window=100.5), "window"),
        (dict(window=float("nan")), "window"),
        (dict(min_samples=2.5), "min_samples"),
        (dict(num_buckets=0), "num_buckets"),
        (dict(num_buckets=float("inf")), "num_buckets"),
    ])
    def test_sizes_must_be_whole_numbers(self, kwargs, name):
        """The native span loop sizes its rings and counts from these;
        a fractional window used to never evict."""
        with pytest.raises(ValueError, match=name):
            DemandProfiler(**kwargs)

    def test_whole_float_sizes_taken_as_ints(self):
        p = DemandProfiler(window=4.0, min_samples=2.0)
        assert (p.window, p.min_samples) == (4, 2)
        for i in range(10):
            p.observe(float(i + 1), 0.0)
        assert len(p._cycles) == 4

    def test_rejects_negative_observation(self):
        p = DemandProfiler()
        with pytest.raises(ValueError):
            p.observe(-1.0, 0.0)


class TestWindowing:
    def test_window_evicts_old_samples(self):
        p = DemandProfiler(window=10, min_samples=2)
        for _ in range(10):
            p.observe(1e6, 0.0)
        for _ in range(10):
            p.observe(5e6, 0.0)  # drift: demands grow 5x
        cycles, _ = p.snapshot()
        # Only new-regime samples remain.
        assert cycles.mean() == pytest.approx(5e6, rel=0.1)

    def test_sample_count_capped(self):
        p = DemandProfiler(window=10, min_samples=2)
        samples = [1e5 * k for k in range(1, 101)]
        for c in samples:
            p.observe(c, 0.0)
        # Only the last 10 samples are left in the window.
        cycles, _ = p.snapshot()
        want = Histogram.from_samples(samples[-10:], p.num_buckets)
        np.testing.assert_array_equal(cycles.pmf, want.pmf)
        assert cycles.bucket_width == want.bucket_width
        assert p.total_observed == 100


class TestSnapshot:
    def test_snapshot_moments(self):
        p = DemandProfiler(min_samples=2)
        for c in (1e6, 2e6, 3e6):
            p.observe(c, 1e-4)
        cycles, memory = p.snapshot()
        assert cycles.mean() == pytest.approx(2e6, rel=0.05)
        assert memory.mean() == pytest.approx(1e-4, rel=0.05)

    def test_zero_memory_degenerates(self):
        p = DemandProfiler(min_samples=2)
        p.observe(1e6, 0.0)
        p.observe(2e6, 0.0)
        _, memory = p.snapshot()
        assert memory.quantile(0.95) <= 1e-8

    def test_128_buckets_default(self):
        p = DemandProfiler(min_samples=2)
        for c in range(1, 1000):
            p.observe(float(c), 0.0)
        cycles, _ = p.snapshot()
        assert cycles.num_buckets == 128


class TestIncrementalOracle:
    """Randomized add/evict oracle: incremental state vs from-scratch."""

    @staticmethod
    def _check(p, ref_c, ref_m):
        cycles, memory = p.snapshot()
        exp_c = Histogram.from_samples(list(ref_c), p.num_buckets)
        assert cycles.bucket_width == exp_c.bucket_width
        np.testing.assert_array_equal(cycles.pmf, exp_c.pmf)
        if max(ref_m) <= 0:
            assert memory.bucket_width == ZERO_MEMORY_WIDTH
            np.testing.assert_array_equal(memory.pmf, [1.0])
        else:
            exp_m = Histogram.from_samples(list(ref_m), p.num_buckets)
            assert memory.bucket_width == exp_m.bucket_width
            np.testing.assert_array_equal(memory.pmf, exp_m.pmf)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_from_samples_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        window = int(rng.integers(5, 90))
        p = DemandProfiler(window=window, min_samples=2)
        ref_c = deque(maxlen=window)
        ref_m = deque(maxlen=window)
        # Regime means rise *and fall* so the window maximum both grows
        # (new record) and leaves the window (max eviction + rescan).
        means = [13.0, 15.0, 11.0, 14.0]
        for step in range(700):
            c = float(rng.lognormal(means[(step // 175) % 4], 0.5))
            r = rng.random()
            if r < 0.25:
                m = 0.0  # zero runs: the memory point-mass path
            elif r < 0.35 and ref_m:
                m = ref_m[-1]  # exact repeats: max-count ties
            else:
                m = float(rng.lognormal(-9.0 + (step // 150) % 3, 0.7))
            p.observe(c, m)
            ref_c.append(c)
            ref_m.append(m)
            if p.ready and (step % 5 == 0 or rng.random() < 0.2):
                self._check(p, ref_c, ref_m)

    def test_snapshot_between_and_after_bursts(self):
        """Bursts larger than the window (the pending-queue overflow
        path) still snapshot bitwise-correct."""
        window = 16
        p = DemandProfiler(window=window, min_samples=2)
        ref = deque(maxlen=window)
        rng = np.random.default_rng(99)
        for burst in (3, 40, 5, 64):
            for v in rng.lognormal(10, 0.8, burst):
                p.observe(float(v), float(v) * 1e-10)
                ref.append(float(v))
            self._check(p, ref, deque(v * 1e-10 for v in ref))

    def test_zero_memory_point_mass_after_evictions(self):
        """Satellite regression: the all-zero memory path must be hit
        from the *incremental* max, after the positive sample evicts."""
        p = DemandProfiler(window=4, min_samples=2)
        p.observe(1e6, 5e-4)
        for _ in range(4):
            p.observe(1e6, 0.0)  # positive memory sample slides out
        _, memory = p.snapshot()
        assert memory.bucket_width == ZERO_MEMORY_WIDTH
        np.testing.assert_array_equal(memory.pmf, [1.0])
        assert memory.quantile(0.95) <= 1e-8
        # A positive sample re-enters: back to the bucketed form.
        p.observe(1e6, 2e-4)
        _, memory = p.snapshot()
        expected = Histogram.from_samples([0.0, 0.0, 0.0, 2e-4],
                                          p.num_buckets)
        assert memory.bucket_width == expected.bucket_width
        np.testing.assert_array_equal(memory.pmf, expected.pmf)

    def test_all_zero_cycles_degenerate(self):
        """from_samples' top<=0 path (cycles) keeps its 1.0-wide bucket."""
        p = DemandProfiler(window=8, min_samples=2)
        for _ in range(3):
            p.observe(0.0, 0.0)
        cycles, memory = p.snapshot()
        assert cycles.bucket_width == 1.0
        np.testing.assert_array_equal(cycles.pmf, [1.0])
        assert memory.bucket_width == ZERO_MEMORY_WIDTH

    def test_snapshot_is_independent_of_live_state(self):
        """Returned histograms must not alias the live counts."""
        p = DemandProfiler(window=8, min_samples=2)
        for v in (1.0, 2.0, 3.0):
            p.observe(v, v * 1e-4)
        cycles, _ = p.snapshot()
        before = cycles.pmf.copy()
        for v in (7.0, 8.0, 9.0, 10.0, 11.0):
            p.observe(v, v * 1e-4)
        p.snapshot()
        np.testing.assert_array_equal(cycles.pmf, before)
