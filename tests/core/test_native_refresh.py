"""A Rubik table refresh on the C span loop.

When ``rk_span`` surfaces a due refresh it has written both windows'
pmfs and both snapshot tables' row bounds (``rk_row_bounds``, with
``TailTable.__init__``'s arithmetic). A cache miss's tables take those
bounds instead of computing them, and every table switch binds in C
from the snapshot (``rk_bind``); the session copies only a hit's built
rows in. Pinned here:

* C's row bounds against ``TailTable``'s numpy bounds, bit for bit, on
  random pmfs and widths, with the cases a slip in the threshold, the
  search or the cap would move;
* a native run and a Python-kernel run leave every table pair they
  resolve the same: bounds (list and array) and row lists;
* every bind hands C exactly the bound pair's bases, bounds and built
  rows, and starts every other row empty;
* a run C could not bind that way (a subclass that resolves tables its
  own way, tables bound before the run) stays on the Python loop.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core._native import build
from repro.core._native.kernel import oracle_library
from repro.core._native.session import (
    NativeRunSession,
    NativeTailRows,
    _dptr,
)
from repro.core.controller import Rubik
from repro.core.histogram import Histogram
from repro.core.table_cache import TABLE_CACHE
from repro.core.tail_tables import TailTable, TargetTailTables
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, MASSTREE

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not build.available(),
                       reason="native library unavailable"),
]


def c_bounds(pmf: np.ndarray, width: float, num_rows: int) -> list:
    out = np.full(num_rows, np.nan)
    oracle_library().rk_row_bounds(_dptr(pmf), pmf.size, width, num_rows,
                                   _dptr(out))
    return out.tolist()


def numpy_bounds(pmf: np.ndarray, width: float, num_rows: int) -> list:
    table = TailTable(Histogram._from_normalized(width, pmf),
                      num_rows=num_rows)
    return table._row_bounds_list


@st.composite
def snapshot_pmfs(draw):
    """A window's pmf as the profiler's snapshot divides it: bucket
    counts over their total."""
    counts = draw(st.lists(st.integers(0, 2000), min_size=1, max_size=160)
                  .filter(lambda c: sum(c) > 0))
    total = float(sum(counts))
    return np.array([c / total for c in counts])


#: Uniform over 24 buckets: the CDF crosses 2/8, 5/8, 6/8 and 7/8 a hair
#: below them, so without the 1e-12 those rows start a bucket later.
UNIFORM_24 = np.full(24, 1.0 / 24.0)
#: The first CDF entry lands exactly on row 1's threshold, 1/8 - 1e-12:
#: the search takes the first entry at or above it.
ON_THRESHOLD = np.array([1.0 / 8.0 - 1e-12, 7.0 / 8.0 + 1e-12])


@settings(max_examples=300, deadline=None)
@given(pmf=snapshot_pmfs(),
       width=st.one_of(st.sampled_from([1.0, 1e-9, 3e-4, 2.5e4]),
                       st.floats(1e-12, 1e12)),
       num_rows=st.integers(1, 12))
@example(pmf=np.array([1.0]), width=1.0, num_rows=8)
@example(pmf=np.array([1.0]), width=1e-9, num_rows=8)
@example(pmf=np.array([7.0, 0.0, 1.0]) / 8.0, width=3e-4, num_rows=8)
@example(pmf=np.array([15.0, 1.0]) / 16.0, width=2.5e4, num_rows=8)
@example(pmf=UNIFORM_24, width=1.0, num_rows=8)
@example(pmf=ON_THRESHOLD, width=1.0, num_rows=8)
def test_c_row_bounds_equal_numpy_bounds(pmf, width, num_rows):
    assert c_bounds(pmf, width, num_rows) == numpy_bounds(pmf, width,
                                                          num_rows)


def test_explicit_examples_exercise_what_they_name():
    """The examples above still pin what they were chosen for."""
    # A point mass: row 0 at zero, every other row one bucket up.
    for width in (1.0, 1e-9):
        assert c_bounds(np.array([1.0]), width, 8) == [0.0] + [width] * 7
    # Seven eighths in the first bucket: every row starts after it.
    assert c_bounds(np.array([7.0, 0.0, 1.0]) / 8.0, 3e-4, 8) \
        == [0.0] + [3e-4] * 7
    # Dropping the 1e-12 moves rows 2, 5, 6 and 7 of the uniform pmf.
    cdf = np.cumsum(UNIFORM_24)
    with_eps = cdf.searchsorted(np.arange(1, 8) / 8 - 1e-12)
    without = cdf.searchsorted(np.arange(1, 8) / 8)
    assert (np.flatnonzero(with_eps != without) + 1).tolist() == [2, 5, 6, 7]
    # An entry equal to the threshold is found, not stepped over.
    assert c_bounds(ON_THRESHOLD, 1.0, 8)[1] == 1.0


# -- whole runs ---------------------------------------------------------


def _traces():
    """(name, app, trace): three apps, plus traces whose cycles or
    memory window is all zero, so a snapshot is a point mass."""
    n = 1500
    arrivals = np.arange(n) * 2e-4
    yield ("masstree", MASSTREE,
           Trace.generate_at_load(MASSTREE, 0.6, 500, 4))
    yield ("xapian", APPS["xapian"],
           Trace.generate_at_load(APPS["xapian"], 0.6, 800, 5))
    yield ("specjbb", APPS["specjbb"],
           Trace.generate_at_load(APPS["specjbb"], 0.7, 2000, 5))
    yield ("no-memory", MASSTREE,
           Trace(arrivals, np.full(n, 2e5) * (1 + np.arange(n) % 7),
                 np.zeros(n)))
    yield ("no-cycles", MASSTREE,
           Trace(arrivals, np.zeros(n), np.full(n, 2e-5)
                 * (1 + np.arange(n) % 5)))


@pytest.mark.parametrize("name,app,trace", list(_traces()),
                         ids=[name for name, _, _ in _traces()])
def test_native_run_resolves_the_kernels_tables(name, app, trace,
                                                monkeypatch):
    """Every pair a run resolves, in order, ends the run with the same
    bounds and row lists on the span loop as on the Python kernel."""
    real_refresh = Rubik._refresh_tables
    context = make_context(app, 4, len(trace))
    runs = []

    def recording_refresh(self, *args):
        real_refresh(self, *args)
        runs[-1].append(self.tables)

    monkeypatch.setattr(Rubik, "_refresh_tables", recording_refresh)
    for path in ("native", "kernel"):
        TABLE_CACHE.clear()
        runs.append([])
        rubik = Rubik()
        with pytest.MonkeyPatch.context() as mp:
            if path == "kernel":  # hide the library: the Python kernel
                mp.setattr(build, "load_library", lambda: None)
            run_trace(trace, rubik, context)
        assert rubik.decision_path == path
    native, kernel = runs

    def state(pairs):
        return [[(t._row_bounds_list, t.row_bounds.tolist(),
                  type(t.row_bounds), dict(t._row_lists))
                 for t in (pair.cycles, pair.memory)] for pair in pairs]

    assert len(native) > 1
    assert state(native) == state(kernel)


def test_bind_hands_c_the_pairs_bases_bounds_and_rows(monkeypatch):
    """After every bind C holds the bound pair's bases, widths and
    bounds (the snapshot's, bit for bit), each row the pair has built,
    and nothing in any other row. A warm rerun makes hits whose pairs
    carry built rows."""
    real_bind = NativeTailRows.bind
    carried = []

    def checking_bind(self, tables):
        real_bind(self, tables)
        st = self._st
        for t, table in enumerate((tables.cycles, tables.memory)):
            size = table._base_len
            assert st.tt_len[t] == size
            assert st.tt_width[t] == table.base.bucket_width
            assert self._base[t, :size].tolist() == table.base.pmf.tolist()
            assert self._bounds[t].tolist() == table._row_bounds_list
            for row in range(table.num_rows):
                tails = table._row_lists.get(row, [])
                assert self._rowlen[t, row] == len(tails)
                assert self._rows[t, row, :len(tails)].tolist() == tails
        carried.append(tables.cycles.built_cells()
                       + tables.memory.built_cells())

    monkeypatch.setattr(NativeTailRows, "bind", checking_bind)
    context = make_context(MASSTREE, 6, 800)
    trace = Trace.generate_at_load(MASSTREE, 0.5, 800, 6)
    TABLE_CACHE.clear()
    for _ in range(2):
        rubik = Rubik()
        run_trace(trace, rubik, context)
        assert rubik.decision_path == "native"
    assert carried.count(0) < len(carried) and max(carried) > 0


# -- what C cannot bind stays on the Python loop ------------------------


@pytest.mark.parametrize("hook", ["setup", "on_arrival", "on_completion",
                                  "_maybe_refresh_tables",
                                  "_refresh_tables"])
def test_a_subclass_replacing_a_span_hook_keeps_the_python_loop(hook):
    """C binds each refresh's pair as Rubik's own resolution of the
    snapshot: a subclass that replaces ``_refresh_tables`` (or any hook
    the span loop stands in for, ``setup`` included, which binds the
    Python evaluator) runs on the Python kernel."""
    def passthrough(self, *args):
        return getattr(Rubik, hook)(self, *args)

    custom = type("CustomRubik", (Rubik,), {hook: passthrough})()
    context = make_context(MASSTREE, 7, 300)
    run_trace(Trace.generate_at_load(MASSTREE, 0.5, 300, 7), custom,
              context)
    assert custom.decision_path == "kernel"
    assert custom.refresh_stats.snapshots > 0


def test_a_run_that_starts_with_tables_bound_keeps_the_python_loop():
    """The span loop binds only snapshots it surfaced: a controller
    whose tables were bound before the run is not served in C."""
    context = make_context(MASSTREE, 7, 300)
    trace = Trace.generate_at_load(MASSTREE, 0.5, 300, 7)
    sim = Simulator()
    core = Core(sim, context.dvfs, DEFAULT_CORE_POWER)
    rubik = Rubik()
    rubik.setup(sim, core, context)
    rubik.tables = TargetTailTables(Histogram.point_mass(1e6, 1e4),
                                    Histogram.point_mass(0.0, 1e-9))
    assert NativeRunSession.create(sim, core, rubik, trace) is None
    rubik.tables = None
    assert NativeRunSession.create(sim, core, rubik, trace) is not None
