"""Tests for the target tail tables (paper Fig. 4/5 math)."""

import numpy as np
import pytest

from repro.core.histogram import Histogram
from repro.core.tail_tables import TailTable, TargetTailTables


def lognormal_hist(seed=0, mean=1e6, cv=0.3, n=20000):
    import math
    sigma2 = math.log(1 + cv * cv)
    mu = math.log(mean) - sigma2 / 2
    samples = np.random.default_rng(seed).lognormal(mu, math.sqrt(sigma2), n)
    return Histogram.from_samples(samples)


class TestConstruction:
    def test_paper_shape(self):
        t = TailTable(lognormal_hist())
        assert t.table.shape == (8, 16)  # octile rows, 16 columns

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            TailTable(lognormal_hist(), quantile=1.5)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            TailTable(lognormal_hist(), num_rows=0)

    def test_given_row_bounds_build_the_same_table(self):
        """A caller that already has the bounds the constructor would
        compute (the native span loop) gets the same table: the list is
        kept, the array built on first read, every cell equal."""
        h = lognormal_hist()
        own = TailTable(h)
        bounds = list(own._row_bounds_list)
        given = TailTable(h, row_bounds=bounds)
        assert given._row_bounds_list is bounds
        assert given.row_bounds.tolist() == own.row_bounds.tolist()
        np.testing.assert_array_equal(given.table, own.table)
        with pytest.raises(ValueError, match="num_rows=8"):
            TailTable(h, row_bounds=bounds[:-1])


class TestTailValues:
    def test_column_zero_is_request_tail(self):
        h = lognormal_hist()
        t = TailTable(h, quantile=0.95)
        assert t.tail(0) == pytest.approx(h.quantile(0.95))

    def test_monotone_in_queue_position(self):
        """Deeper queue positions always need more total work."""
        t = TailTable(lognormal_hist())
        tails = [t.tail(i) for i in range(30)]
        assert all(b > a for a, b in zip(tails, tails[1:]))

    def test_relative_tail_tightens_with_depth(self):
        """CLT effect the paper leverages: the tail of S_i relative to its
        mean shrinks as i grows, so the last queued request rarely sets
        the frequency (Sec. 4.1)."""
        h = lognormal_hist(cv=0.5)
        t = TailTable(h)
        mean = h.mean()
        rel_1 = t.tail(1) / (2 * mean)
        rel_10 = t.tail(10) / (11 * mean)
        assert rel_10 < rel_1

    def test_tail_approximates_true_convolution_quantile(self):
        """Column i's tail matches the Monte-Carlo quantile of a sum of
        i+1 iid draws (within bucketing error)."""
        rng = np.random.default_rng(1)
        samples = rng.uniform(0.5e6, 1.5e6, 20000)
        h = Histogram.from_samples(samples)
        t = TailTable(h, quantile=0.95)
        sums = rng.choice(samples, size=(50000, 4)).sum(axis=1)
        truth = np.percentile(sums, 95)
        assert t.tail(3) == pytest.approx(truth, rel=0.05)

    def test_elapsed_reduces_tail(self):
        """Conditioning on elapsed work shrinks the remaining tail for a
        light-tailed distribution."""
        h = lognormal_hist(cv=0.2)
        t = TailTable(h)
        assert t.tail(0, elapsed=h.quantile(0.5)) < t.tail(0, elapsed=0.0)

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError):
            TailTable(lognormal_hist()).tail(-1)

    def test_rejects_negative_elapsed(self):
        with pytest.raises(ValueError):
            TailTable(lognormal_hist()).row_for_elapsed(-1.0)


class TestRowSelection:
    def test_row_zero_for_fresh_request(self):
        t = TailTable(lognormal_hist())
        assert t.row_for_elapsed(0.0) == 0

    def test_row_advances_with_elapsed(self):
        h = lognormal_hist()
        t = TailTable(h)
        rows = [t.row_for_elapsed(e) for e in
                [0.0, h.quantile(0.2), h.quantile(0.6), h.quantile(0.99)]]
        assert rows == sorted(rows)
        assert rows[-1] == t.num_rows - 1

    def test_rows_conditioned_conservatively(self):
        """A row's tail is computed at its band's lower edge, so it never
        under-estimates within-band remaining work."""
        h = lognormal_hist(cv=0.2)
        t = TailTable(h)
        for r in range(1, t.num_rows):
            lower = t.row_bounds[r]
            direct = h.condition_on_elapsed(lower).quantile(0.95)
            assert t.table[r, 0] == pytest.approx(direct, rel=1e-9)


class TestGaussianExtension:
    def test_deep_positions_use_clt(self):
        """Beyond max_explicit, tails follow mean + z*sigma growth and
        stay continuous-ish with the explicit region."""
        h = lognormal_hist(cv=0.3)
        t = TailTable(h, max_explicit=16)
        explicit_15 = t.tail(15)
        clt_16 = t.tail(16)
        clt_17 = t.tail(17)
        assert clt_16 > explicit_15
        # Per-position growth near the boundary is about one mean.
        assert clt_17 - clt_16 == pytest.approx(h.mean(), rel=0.2)

    def test_clt_matches_convolution_at_depth(self):
        h = lognormal_hist(cv=0.3)
        explicit = TailTable(h, max_explicit=24)
        clt = TailTable(h, max_explicit=16)
        assert clt.tail(20) == pytest.approx(explicit.tail(20), rel=0.05)


class TestTargetTailTables:
    def test_constraint_returns_both_tails(self):
        cycles = lognormal_hist(0, mean=1e6)
        memory = lognormal_hist(1, mean=1e-4)
        tables = TargetTailTables(cycles, memory)
        c, m = tables.constraint(0, 0.0, 0.0)
        assert c == pytest.approx(cycles.quantile(0.95))
        assert m == pytest.approx(memory.quantile(0.95))

    def test_zero_memory_point_mass(self):
        cycles = lognormal_hist()
        memory = Histogram.point_mass(0.0, bucket_width=1e-9)
        tables = TargetTailTables(cycles, memory)
        _, m = tables.constraint(3, 0.0, 0.0)
        assert m <= 1e-8

    def test_paper_fig4_scenario(self):
        """Fig. 4: three requests; the frequency constraint of Eq. 1 is
        satisfiable and the implied frequency is positive and finite."""
        cycles = lognormal_hist(mean=0.5e6, cv=0.2)
        memory = Histogram.point_mass(0.0, bucket_width=1e-9)
        tables = TargetTailTables(cycles, memory)
        bound = 2e-3
        times_in_system = [1.5e-3, 0.8e-3, 0.1e-3]
        freqs = []
        for i, t_i in enumerate(times_in_system):
            c_i, m_i = tables.constraint(i, 0.3e6, 0.0)
            slack = bound - t_i - m_i
            assert slack > 0
            freqs.append(c_i / slack)
        # R1 (middle) has the most stringent constraint in this setup?
        # At minimum, all constraints are finite and the max is what the
        # controller would pick.
        assert max(freqs) < 10e9
