"""Equivalence guards for the PR 1 fast paths.

The perf overhaul (cached histogram CDFs/FFTs, shared-convolution lazy
tail-table builds, the fast-path Rubik controller, the tuple event heap)
must be *behaviorally invisible*: every scheme decision and figure
output must match what the original scalar implementations produce.
These tests pin that:

* a reference (seed-algorithm) tail-table build, kept here in test code,
  must match the shared-convolution build cell-for-cell;
* seeded traces through the scalar ``_update_frequency`` loop and the
  Python decision kernel must produce identical frequency-request
  sequences, p95/p99 latencies, and energy (rel tol 1e-9 — observed:
  bitwise).
"""

import math

import numpy as np
import pytest

from repro.core.controller import Rubik
from repro.core.histogram import Histogram
from repro.core.tail_tables import TailTable
from repro.experiments.common import make_context
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE, SPECJBB


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

    def test_row_index_fast_path_matches_public(self):
        h = lognormal_hist(8)
        t = TailTable(h)
        for e in [0.0, h.quantile(0.1), h.quantile(0.5), h.quantile(0.99),
                  float(t.row_bounds[3])]:
            assert t._row_index(e) == t.row_for_elapsed(e)

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


class TestControllerEquivalence:
    @pytest.mark.parametrize("app,seed,n,load", [
        (MASSTREE, 3, 2500, 0.5),
        (MASSTREE, 11, 2500, 0.8),
        (SPECJBB, 7, 2500, 0.4),
    ])
    def test_vectorized_matches_scalar(self, app, seed, n, load):
        """The compiler-free fast path (``path="kernel"``) against the
        scalar loop through ``run_trace``."""
        ctx = make_context(app, seed, n)
        trace = Trace.generate_at_load(app, load, n, seed)
        scalar, kernel = [
            run_trace(trace, Rubik(path=path), ctx, record_freq_history=True)
            for path in ("scalar", "kernel")]
        assert scalar.freq_history  # opt-in must actually record

        # Identical frequency *request* outcomes: the applied-transition
        # history must match event for event.
        assert kernel.freq_history == scalar.freq_history
        assert kernel.dvfs_transitions == scalar.dvfs_transitions

        s_lat = scalar.response_times()
        k_lat = kernel.response_times()
        for pct in (95, 99):
            assert float(np.percentile(k_lat, pct)) == pytest.approx(
                float(np.percentile(s_lat, pct)), rel=1e-9)
        assert kernel.energy_j == pytest.approx(scalar.energy_j, rel=1e-9)

    def test_deep_queue_path_matches_scalar(self):
        """Force queue depths past max_explicit so the kernel's deep
        path (CLT-extended rows, certificate folds) is exercised."""
        ctx = make_context(MASSTREE, 13, 2000)
        trace = Trace.generate_at_load(MASSTREE, 1.4, 2000, 13)
        runs = [run_trace(trace, Rubik(path=path, max_explicit=4),
                          ctx, record_freq_history=True)
                for path in ("scalar", "kernel")]
        assert runs[0].freq_history  # opt-in must actually record
        assert runs[0].freq_history == runs[1].freq_history
        assert runs[0].energy_j == pytest.approx(runs[1].energy_j, rel=1e-9)
