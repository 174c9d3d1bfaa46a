"""Per-row lazy tail tables against an eager batched build.

``TailTable`` builds each row on first read, to the depth read. These
tests pin that this is invisible: any sequence of accessor calls on
random histograms returns exactly (``assert_array_equal``, not
``allclose``) what the previous eager build gave — every row conditioned
up front, every column one stacked ``irfft`` over all rows. That build
is kept below as test code. They also pin the laziness itself: unread
rows are never conditioned, no row is built past the deepest position
read, and CLT moments are computed only when a CLT position is read.
"""

import dataclasses
import math
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=80, deadline=None)
@given(base=histograms(),
       quantile=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
       num_rows=st.integers(1, 9),
       max_explicit=st.integers(1, 18),
       calls=CALLS)
def test_any_call_sequence_matches_eager_build(base, quantile, num_rows,
                                               max_explicit, calls):
    # The reference gets its own copy of the base so no transform cache
    # is shared with the table under test.
    ref = eager_build(
        Histogram._from_normalized(base.bucket_width, base.pmf.copy()),
        quantile, num_rows, max_explicit)
    t = TailTable(base, quantile, num_rows, max_explicit)
    np.testing.assert_array_equal(t.row_bounds, ref.bounds)
    support = base.pmf.size * base.bucket_width
    for op, k, frac in calls:
        row = k % num_rows
        if op == "row_tails_list":
            count = 1 + k % max_explicit
            got = t.row_tails_list(row, count)
            assert len(got) >= count
            assert_row_list(got, ref, row)
        elif op == "extended_row_list":
            got = t.extended_row_list(row, k + 1)
            assert len(got) >= k + 1
            assert_row_list(got, ref, row)
        else:
            elapsed = frac * support
            row = int(np.searchsorted(ref.bounds, elapsed, side="right")) - 1
            assert t.tail(k, elapsed) == expected_tail(ref, row, k)
    np.testing.assert_array_equal(t.materialize(), ref.table)
    np.testing.assert_array_equal(t.row_means, ref.row_means)
    np.testing.assert_array_equal(t.row_vars, ref.row_vars)
    assert (t.base_mean, t.base_var) == (ref.base_mean, ref.base_var)


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
