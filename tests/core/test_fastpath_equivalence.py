"""Equivalence guards for the PR 1 tail-table fast paths.

The perf overhaul (cached histogram CDFs/FFTs, shared-convolution lazy
tail-table builds) must be *behaviorally invisible*: a reference
(seed-algorithm) tail-table build, kept here in test code, must match
the shared-convolution build cell-for-cell. The controller's decisions
are pinned against the per-request reference loop by the
decision-oracle suite (``test_decision_kernel.py``).
"""

import math

import numpy as np
import pytest

from repro.core.histogram import Histogram
from repro.core.tail_tables import TailTable


def lognormal_hist(seed=0, mean=1e6, cv=0.3, n=20000):
    sigma2 = math.log(1 + cv * cv)
    mu = math.log(mean) - sigma2 / 2
    samples = np.random.default_rng(seed).lognormal(mu, math.sqrt(sigma2), n)
    return Histogram.from_samples(samples)


def reference_table(base, quantile=0.95, num_rows=8, max_explicit=16):
    """The seed's row-by-row iterated-convolution build (pre-PR 1)."""
    qs = [k / num_rows for k in range(1, num_rows)]
    row_bounds = [0.0] + [base.quantile(q) for q in qs]
    table = np.empty((num_rows, max_explicit))
    for r, elapsed in enumerate(row_bounds):
        conditioned = base.condition_on_elapsed(elapsed)
        acc = conditioned
        for i in range(max_explicit):
            table[r, i] = acc.quantile(quantile)
            if i + 1 < max_explicit:
                acc = acc.convolve(base)
    return np.asarray(row_bounds), table


class TestSharedConvolutionTables:
    @pytest.mark.parametrize("seed,mean,cv", [
        (0, 1e6, 0.3), (1, 1e6, 0.05), (2, 5e5, 1.2), (3, 1e-4, 0.4),
        (4, 2e6, 0.8),
    ])
    def test_matches_reference_build(self, seed, mean, cv):
        h = lognormal_hist(seed, mean, cv)
        table = TailTable(h)
        ref_bounds, ref = reference_table(h)
        np.testing.assert_allclose(table.row_bounds, ref_bounds, rtol=1e-9)
        np.testing.assert_allclose(table.materialize(), ref, rtol=1e-9)

    @pytest.mark.parametrize("num_rows,max_explicit", [
        (4, 16), (8, 24), (3, 1), (8, 2),
    ])
    def test_matches_reference_other_shapes(self, num_rows, max_explicit):
        h = lognormal_hist(7, 1e6, 0.5)
        table = TailTable(h, num_rows=num_rows, max_explicit=max_explicit)
        _, ref = reference_table(h, num_rows=num_rows,
                                 max_explicit=max_explicit)
        np.testing.assert_allclose(table.materialize(), ref, rtol=1e-9)

    def test_matches_reference_degenerate_bases(self):
        for h in [Histogram.point_mass(0.0, 1e-9),
                  Histogram.point_mass(5.0, 1.0),
                  Histogram(1.0, [0.5, 0.5])]:
            table = TailTable(h)
            _, ref = reference_table(h)
            np.testing.assert_allclose(table.materialize(), ref, rtol=1e-9)

    def test_lazy_columns_match_eager(self):
        """Column-at-a-time demand builds equal a full materialization."""
        h = lognormal_hist(5)
        lazy = TailTable(h)
        eager = TailTable(h)
        eager.materialize()
        # Drive the lazy table through the public accessors out of order.
        for pos in (0, 3, 1, 9, 15):
            assert lazy.tail(pos) == eager.tail(pos)
        np.testing.assert_array_equal(lazy.materialize(), eager.table)

    def test_row_bounds_is_ndarray(self):
        """Satellite fix: row_bounds used to be a Python list."""
        t = TailTable(lognormal_hist())
        assert isinstance(t.row_bounds, np.ndarray)

    def test_clt_branch_math_sqrt_bitwise(self):
        """Satellite fix: tail()'s CLT branch uses math.sqrt (no ndarray
        boxing on the per-event path) — bit-for-bit what np.sqrt gave."""
        h = lognormal_hist(9, 1e6, 0.6)
        t = TailTable(h, max_explicit=4)
        for position in (4, 7, 16, 40):
            for elapsed in (0.0, h.quantile(0.3), h.quantile(0.9)):
                row = t.row_for_elapsed(elapsed)
                mean = t.row_means[row] + position * t.base_mean
                var = t.row_vars[row] + position * t.base_var
                expected = max(0.0, float(
                    mean + t._z * np.sqrt(max(var, 0.0))))
                got = t.tail(position, elapsed)
                assert got == expected  # bitwise, not approx
                assert isinstance(got, float)

    def test_row_list_caches_survive_column_growth(self):
        """Satellite fix: growing columns used to clear every row's
        cached float list; now lists extend in place."""
        t = TailTable(lognormal_hist(4))
        row0 = t.row_tails_list(0, 3)
        row5 = t.row_tails_list(5, 3)
        grown = t.row_tails_list(0, 12)  # forces columns 3..11
        assert grown is row0  # extended in place, not rebuilt
        assert t._row_lists[5] is row5  # other row's cache survived
        # Growth through a different accessor extends lazily on re-read.
        t.tail(15)
        full5 = t.row_tails_list(5, 16)
        assert full5 is row5
        np.testing.assert_array_equal(full5, t.table[5, :16])
        assert t.row_tails_list(0, 16) is row0
        np.testing.assert_array_equal(row0, t.table[0, :16])

