"""Per-row lazy tail tables against an eager batched build.

``TailTable`` builds each row on first read, to the depth read. These
tests pin that this is invisible: any sequence of accessor calls on
random histograms returns exactly (``assert_array_equal``, not
``allclose``) what the previous eager build gave — every row conditioned
up front, every column one stacked ``irfft`` over all rows. That build
is kept below as test code. They also pin the laziness itself: unread
rows are never conditioned, no row is built past the deepest position
read, and CLT moments are computed only when a CLT position is read.

The native leg runs the same call sequences with the rows built as a
native Rubik run builds them: C's own FFT fills every explicit cell
whose quantile index it can certify (``rk_grow_row``, the span loop's
row growth), and the table's Python build serves the rest — near-tie
cells and the CLT positions.
"""

import ctypes
import dataclasses
import functools
import math
import time
import types
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core._native import build
from repro.core._native.kernel import RKState, oracle_library
from repro.core._native.session import NativeTailRows, _dptr
from repro.core.histogram import Histogram, _normal_quantile
from repro.core.tail_tables import TailTable, TargetTailTables


@dataclasses.dataclass
class Eager:
    bounds: np.ndarray
    table: np.ndarray
    row_means: np.ndarray
    row_vars: np.ndarray
    base_mean: float
    base_var: float
    z: float
    max_explicit: int


def eager_build(base, quantile, num_rows, max_explicit):
    """The eager batched build: all rows conditioned, column 0 read off
    each conditioned row, then per column one batched multiply by the
    accumulated base-transform power and one stacked ``irfft``."""
    qs = [k / num_rows for k in range(1, num_rows)]
    bounds = np.array([0.0] + [base.quantile(q) for q in qs])
    conditioned = [base.condition_on_elapsed(e) for e in bounds]
    table = np.full((num_rows, max_explicit), np.nan)
    for r, cond in enumerate(conditioned):
        table[r, 0] = cond.quantile(quantile)
    base_len = base.pmf.size
    max_cond = max(c.pmf.size for c in conditioned)
    eps_q = quantile - 1e-12
    fft_state = {}
    for i in range(1, max_explicit):
        need = max_cond + i * (base_len - 1)
        size = 1 << (need - 1).bit_length()
        state = fft_state.get(size)
        if state is None:
            state = [1, base.rfft(size),
                     np.stack([c.rfft(size) for c in conditioned])]
            fft_state[size] = state
        fbase = base.rfft(size)
        while state[0] < i:
            state[1] = state[1] * fbase
            state[0] += 1
        pmfs = np.fft.irfft(state[2] * state[1][None, :], size, axis=-1)
        np.clip(pmfs, 0.0, None, out=pmfs)
        cdfs = np.cumsum(pmfs, axis=-1)
        for r in range(num_rows):
            cdf = cdfs[r]
            idx = int(cdf.searchsorted(eps_q * cdf[-1]))
            support = conditioned[r].pmf.size + i * (base_len - 1)
            table[r, i] = (min(idx, support - 1) + 1) * base.bucket_width
    return Eager(bounds, table,
                 np.array([c.mean() for c in conditioned]),
                 np.array([c.variance() for c in conditioned]),
                 base.mean(), base.variance(), _normal_quantile(quantile),
                 max_explicit)


def expected_tail(ref, row, position):
    """One tail, scalar CLT arithmetic past the explicit columns."""
    if position < ref.max_explicit:
        return float(ref.table[row, position])
    mean = ref.row_means[row] + position * ref.base_mean
    var = ref.row_vars[row] + position * ref.base_var
    return max(0.0, float(mean + ref.z * math.sqrt(max(var, 0.0))))


def assert_row_list(got, ref, row):
    """Every cached entry of a row list is the eager value."""
    np.testing.assert_array_equal(
        got, [expected_tail(ref, row, p) for p in range(len(got))])


@st.composite
def histograms(draw):
    counts = draw(st.lists(st.integers(0, 60), min_size=1, max_size=150)
                  .filter(lambda c: sum(c) > 0))
    if draw(st.booleans()):
        # Heavy right tail: rare large values, like specjbb's long class.
        counts = counts + [0] * draw(st.integers(0, 100)) + [1]
    width = draw(st.sampled_from([1e-7, 3e-4, 1.0, 2.5e4]))
    return Histogram(width, counts)


CALLS = st.lists(
    st.tuples(st.sampled_from(["row_tails_list", "extended_row_list",
                               "tail"]),
              st.integers(0, 40),
              st.floats(0.0, 1.2, allow_nan=False)),
    min_size=1, max_size=12)


class NativeFill:
    """Builds a table's rows as the span loop's decide does: C fills the
    explicit cells it can certify (``rk_grow_row``), and
    ``NativeTailRows.serve`` has the table build the rest, counting the
    explicit cells C handed to Python.

    C binds a pair from a demand snapshot (``rk_bind``): here both
    windows' pmfs are the table's base, and the row bounds C computes
    for them (``rk_row_bounds``) must be the table's own."""

    def __init__(self, table: TailTable) -> None:
        self.table = table
        self.lib = oracle_library()
        self.st = RKState()
        self.ref = ctypes.byref(self.st)
        base = table.base
        size = base.pmf.size
        self.pmf = np.stack([base.pmf, base.pmf])
        self.st.prof_buckets = size
        self.st.prof_pmf = _dptr(self.pmf)
        for k in range(2):
            self.st.prof_valid[k] = 1
            self.st.prof_width[k] = base.bucket_width
        self.rows = NativeTailRows(self.st, self.lib, table.num_rows, size,
                                   table.max_explicit, table.quantile)
        for bounds in self.rows._snap:
            self.lib.rk_row_bounds(_dptr(base.pmf), size, base.bucket_width,
                                   table.num_rows, _dptr(bounds))
        assert self.rows.snapshot_bounds() == [table._row_bounds_list] * 2
        # The table under test fills slot 0, and a table on a copy of its
        # base (no caches shared) stands in for slot 1.
        other = TailTable(
            Histogram._from_normalized(base.bucket_width, base.pmf.copy()),
            table.quantile, table.num_rows, table.max_explicit)
        self.rows.bind(types.SimpleNamespace(cycles=table, memory=other))
        self.python_cells = 0

    def __call__(self, row: int, count: int) -> None:
        grow = self.lib.rk_grow_row
        need = grow(self.ref, 0, row, count)
        while need:
            if need <= self.table.max_explicit:
                self.python_cells += 1
            self.rows.serve(0, row, need)
            need = grow(self.ref, 0, row, count)
        self.rows.write_back()


NATIVE = pytest.param("native", marks=[
    pytest.mark.native,
    pytest.mark.skipif(not build.available(),
                       reason="native library unavailable")])

#: Whole-count ties: 20 samples put the CDF at exactly 19/20 = q, about
#: 1e-12 above q - 1e-12, inside C's certification margin.
TIES = Histogram(1.0, [5, 6, 8, 1])
#: A width whose bucket edges do not always survive ``bound / width``:
#: row 5's bound, 13 buckets, conditions 12 buckets off. The counts sum
#: to 97, so no CDF entry lands on q = 0.99 exactly.
SHORT_SHIFT = Histogram(1e-7, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7,
                               9, 3, 2, 3, 8, 4])
#: 200 buckets (FFT sizes up to 4,096) over 2,206 samples.
LONG_BASE = Histogram(3e-4, [(7 * j * j + 3) % 23 for j in range(199)]
                      + [1])


@pytest.mark.parametrize("leg", ["python", NATIVE])
@settings(max_examples=80, deadline=None)
@given(base=histograms(),
       quantile=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
       num_rows=st.integers(1, 9),
       max_explicit=st.integers(1, 18),
       calls=CALLS,
       ties=st.none())
@example(base=TIES, quantile=0.95, num_rows=2, max_explicit=5,
         calls=[("tail", 3, 0.0), ("extended_row_list", 7, 0.0)],
         ties=True)
@example(base=Histogram(2.5e4, [7]), quantile=0.95, num_rows=3,
         max_explicit=16, calls=[("extended_row_list", 20, 0.5)],
         ties=False)
@example(base=SHORT_SHIFT, quantile=0.99, num_rows=8, max_explicit=6,
         calls=[("tail", 5, 0.65), ("row_tails_list", 13, 0.0)],
         ties=False)
@example(base=LONG_BASE, quantile=0.95, num_rows=8, max_explicit=16,
         calls=[("tail", 15, 0.3), ("extended_row_list", 20, 0.9)],
         ties=False)
def test_any_call_sequence_matches_eager_build(leg, base, quantile, num_rows,
                                               max_explicit, calls,
                                               ties: Optional[bool]):
    """``ties`` (explicit inputs only): whether the native leg must hand
    an explicit cell to Python."""
    # The reference gets its own copy of the base so no transform cache
    # is shared with the table under test.
    ref = eager_build(
        Histogram._from_normalized(base.bucket_width, base.pmf.copy()),
        quantile, num_rows, max_explicit)
    t = TailTable(base, quantile, num_rows, max_explicit)
    fill = NativeFill(t) if leg == "native" else (lambda row, count: None)
    np.testing.assert_array_equal(t.row_bounds, ref.bounds)
    support = base.pmf.size * base.bucket_width
    for op, k, frac in calls:
        row = k % num_rows
        if op == "row_tails_list":
            count = 1 + k % max_explicit
            fill(row, count)
            got = t.row_tails_list(row, count)
            assert len(got) >= count
            assert_row_list(got, ref, row)
        elif op == "extended_row_list":
            fill(row, k + 1)
            got = t.extended_row_list(row, k + 1)
            assert len(got) >= k + 1
            assert_row_list(got, ref, row)
        else:
            elapsed = frac * support
            row = int(np.searchsorted(ref.bounds, elapsed, side="right")) - 1
            fill(row, k + 1)
            assert t.tail(k, elapsed) == expected_tail(ref, row, k)
    for row in range(num_rows):
        fill(row, max_explicit)
    np.testing.assert_array_equal(t.materialize(), ref.table)
    np.testing.assert_array_equal(t.row_means, ref.row_means)
    np.testing.assert_array_equal(t.row_vars, ref.row_vars)
    assert (t.base_mean, t.base_var) == (ref.base_mean, ref.base_var)
    if leg == "native" and ties is not None:
        assert (fill.python_cells > 0) == ties


@settings(max_examples=40, deadline=None)
@given(base=histograms(), rows=st.integers(1, 9),
       exponent=st.integers(1, 17))
def test_stacked_irfft_equals_per_row_calls(base, rows, exponent):
    """The numpy property per-row builds rely on for bitwise outputs:
    the broadcast multiply, ``irfft`` and ``cumsum`` over a stack of
    rows equal the per-row calls bit for bit."""
    n = base.pmf.size
    conds = [base.condition_on_elapsed(e) for e in
             np.linspace(0.0, 0.9 * n * base.bucket_width, rows)]
    size = 1 << (n + exponent * (n - 1) - 1).bit_length()
    power = base.rfft(size)
    for _ in range(exponent - 1):
        power = power * base.rfft(size)
    stacked = np.fft.irfft(np.stack([c.rfft(size) for c in conds])
                           * power[None, :], size, axis=-1)
    cdfs = np.cumsum(stacked, axis=-1)
    for r, cond in enumerate(conds):
        row = np.fft.irfft(cond.rfft(size) * power, size)
        np.testing.assert_array_equal(row, stacked[r])
        np.testing.assert_array_equal(row.cumsum(), cdfs[r])


def lognormal_hist(seed=0, mean=1e6, cv=0.4, n=20000):
    sigma2 = math.log(1 + cv * cv)
    mu = math.log(mean) - sigma2 / 2
    samples = np.random.default_rng(seed).lognormal(mu, math.sqrt(sigma2), n)
    return Histogram.from_samples(samples)


def spy_on(monkeypatch, name):
    """Record the arguments of every ``Histogram.<name>`` call."""
    calls = []
    original = getattr(Histogram, name)

    def spy(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Histogram, name, spy)
    return calls


class TestLaziness:
    def test_unread_rows_never_conditioned(self, monkeypatch):
        conditioned = spy_on(monkeypatch, "condition_on_elapsed")
        t = TailTable(lognormal_hist(3))
        assert conditioned == [] and t.built_cells() == 0
        t.tail(2, elapsed=float(t.row_bounds[5]))
        t.row_tails_list(1, 3)
        assert sorted(conditioned) == [(t.row_bounds[1],),
                                       (t.row_bounds[5],)]
        # Re-reads, deeper reads and CLT reads reuse the conditioning.
        t.extended_row_list(5, 30)
        t.tail(19, elapsed=float(t.row_bounds[1]))
        assert len(conditioned) == 2

    def test_rows_built_only_to_deepest_position_read(self):
        t = TailTable(lognormal_hist(4))
        t.row_tails_list(2, 3)
        t.tail(5, elapsed=float(t.row_bounds[4]))
        t.tail(1, elapsed=float(t.row_bounds[2]))  # shallower: no-op
        t.tail(1, elapsed=float(t.row_bounds[4]))
        assert {r: len(tails) for r, tails in t._row_lists.items()} == \
            {2: 3, 4: 6}
        assert t.built_cells() == 9
        # A CLT position needs the row's whole explicit prefix.
        t.extended_row_list(4, 20)
        assert t.built_cells() == 3 + t.max_explicit

    def test_moments_only_on_first_clt_read(self, monkeypatch):
        means = spy_on(monkeypatch, "mean")
        variances = spy_on(monkeypatch, "variance")
        t = TailTable(lognormal_hist(5), max_explicit=4)
        for row in range(t.num_rows):
            t.row_tails_list(row, 4)
        t.tail(3, elapsed=float(t.row_bounds[2]))
        assert means == [] and variances == []
        t.tail(9, elapsed=float(t.row_bounds[2]))  # CLT: row 2 + base
        assert len(means) == 2 and len(variances) == 2
        t.extended_row_list(2, 12)
        t.tail(6, elapsed=float(t.row_bounds[2]))
        assert len(means) == 2 and len(variances) == 2

    def test_construction_no_slower_than_materialized_build(self):
        """Best of 5: a lazy pair (the controller's refresh) costs at
        most a pair built and materialized."""
        cycles = lognormal_hist(0, 1e6, 0.3, 2000)
        memory = lognormal_hist(1, 1e-4, 0.3, 2000)

        def best_of_5(materialize):
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                tables = TargetTailTables(cycles, memory)
                if materialize:
                    tables.cycles.materialize()
                    tables.memory.materialize()
                best = min(best, time.perf_counter() - t0)
            return best

        assert best_of_5(False) <= best_of_5(True)


# -- explicit cells against theory --------------------------------------

#: Monte-Carlo draws of each sum, and their seed.
MC_DRAWS = 200_000
MC_SEED = 5
#: Per-cell failure probability of the DKW band below; over the 1,280
#: explicit cells of the five apps' ten tables the check fails a
#: correct table with probability under 1.3e-6.
MC_ALPHA = 1e-9


@functools.lru_cache(maxsize=None)
def app_histograms(name):
    """An app's cycles and memory histograms: 2,000 sampled requests in
    128 buckets, as the demand profiler's snapshot bins them."""
    from repro.workloads.apps import APPS

    cycles, memory = APPS[name].sample_demands(
        2000, np.random.default_rng(MC_SEED))
    return Histogram.from_samples(cycles), Histogram.from_samples(memory)


@functools.lru_cache(maxsize=None)
def sum_quantile_bands(name, stream, quantile, num_rows, max_explicit):
    """For each explicit cell ``(r, i)``, the band ``[lo, hi]`` (bucket
    indices) that holds the q-quantile of ``X_0 + X_1 + ... + X_i``:
    ``X_0`` drawn from row r's conditioned pmf and the rest from the
    base pmf, as bucket indices, with probability ``1 - MC_ALPHA``.

    By the Dvoretzky-Kiefer-Wolfowitz inequality, the empirical CDF of
    ``MC_DRAWS`` sums lies within ``eps = sqrt(ln(2 / alpha) / (2N))``
    (0.0073) of the true one, so the quantile lies between the
    empirical quantiles at ``q - eps`` and ``q + eps``."""
    base = app_histograms(name)[stream]
    table = TailTable(base, quantile, num_rows, max_explicit)
    rng = np.random.default_rng(MC_SEED)
    eps = math.sqrt(math.log(2.0 / MC_ALPHA) / (2.0 * MC_DRAWS))

    def draw(pmf, shape):
        cdf = np.cumsum(pmf)
        idx = np.searchsorted(cdf, rng.random(shape) * cdf[-1], side="right")
        return np.minimum(idx, pmf.size - 1)

    tails = np.cumsum(draw(base.pmf, (max_explicit - 1, MC_DRAWS)), axis=0)
    bands = np.zeros((num_rows, max_explicit, 2), dtype=np.int64)
    for row in range(num_rows):
        head = draw(table._condition(row).pmf, MC_DRAWS)
        for i in range(max_explicit):
            sums = head + tails[i - 1] if i else head
            cdf = np.cumsum(np.bincount(sums)) / MC_DRAWS
            bands[row, i] = cdf.searchsorted([quantile - eps,
                                              quantile + eps])
    return bands


@pytest.mark.parametrize("leg", ["python", NATIVE])
@pytest.mark.parametrize("name", ["masstree", "moses", "shore", "specjbb",
                                  "xapian"])
def test_explicit_cells_match_monte_carlo_quantiles(leg, name):
    """Every explicit cell of both tables of an app is the q-quantile of
    its sum of bucket indices, within one bucket (the ``q - 1e-12``
    search can land one bucket low) of the Monte-Carlo band."""
    for stream, base in enumerate(app_histograms(name)):
        table = TailTable(base)
        if leg == "native":
            fill = NativeFill(table)
            for row in range(table.num_rows):
                fill(row, table.max_explicit)
            reference = TailTable(Histogram._from_normalized(
                base.bucket_width, base.pmf.copy())).materialize()
            np.testing.assert_array_equal(table.materialize(), reference)
        index = np.rint(table.materialize() / base.bucket_width) - 1
        bands = sum_quantile_bands(name, stream, table.quantile,
                                   table.num_rows, table.max_explicit)
        assert (index >= bands[..., 0] - 1).all(), (stream, index, bands)
        assert (index <= bands[..., 1] + 1).all(), (stream, index, bands)
