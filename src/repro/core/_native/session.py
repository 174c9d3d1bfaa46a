"""Whole-run native event loops (the ``rk_span`` and ``rk_chip`` drivers).

This is the only way a core runs in the C library. When a run served by
:func:`repro.sim.server.serve` (``run_trace``, and each RubikColoc or
StaticColoc core of a colocated server) is *eligible* — a plain
:class:`~repro.sim.core.Core`, a scheme the C loop models whose class
overrides no event hook, a loaded library and an un-instrumented
simulator — the entire event loop runs inside the C library: event
pop, clock advance, arrival/completion fold, the scheme's frequency
requests, DVFS state machine, segment accounting and completion
scheduling. Each core runs under one LC frequency policy:

* ``LC_EQ2`` — a :class:`~repro.core.controller.Rubik`: the Eq. 2
  decision and the listener work Rubik does per completion. C keeps
  the demand profiler's window and bucket counts, the PI trimmer (its
  rolling window, percentile and target) and the energy meter's sums,
  so between table refreshes no Python code runs per completion or per
  segment;
* ``LC_FIXED`` — a :class:`~repro.coloc.schemes.StaticColocScheme`:
  its LC frequency on each arrival and on each completion that leaves
  a request in service;
* ``LC_NONE`` — a :class:`~repro.schemes.fixed.FixedFrequency` (and
  :class:`~repro.schemes.static_oracle.StaticOracle`), or an HW-T/HW-TPW
  core, whose scheme requests nothing.

:class:`NativeChipSession` steps the six cores of an HW-T/HW-TPW
server together (``rk_chip``), in the coupled Python loop's
``(time, priority, seq)`` order, with the chip allocator's lazy ticks;
Python keeps the allocator itself and fills each occupant mask's
frequencies the first time a tick meets it.

A span returns to Python only when Python-owned state must act:

* ``RK_NEED_ROWS`` — a tail-table row needs cells C does not build:
  the CLT positions past ``max_explicit``, or a cell whose quantile
  index C cannot certify (see :class:`NativeTailRows`);
* ``RK_SURFACE`` — a table refresh is due (C mirrors the controller's
  guards exactly); C has written both windows' pmfs and their tables'
  row bounds, and the session wraps the pmfs as the profiler's snapshot
  for :meth:`Rubik._refresh_tables`, whose tables take C's bounds on a
  cache miss. When the resolved pair is not the bound one, C binds the
  snapshot itself (``rk_bind``, see :class:`NativeTailRows`);
* ``RK_FLUSH_SEGMENTS`` / ``RK_FLUSH_HISTORY`` — the segment log or the
  DVFS history a caller asked for filled its buffer.

(``rk_chip`` also returns for an occupant mask it has not seen.)

Each core's run builds one session, which owns the run's ``RKState``
and every buffer C points into: the DVFS grid, the tail-table rows and
the transforms C builds them with, the trace columns and queues, and
the profiler, trimmer and meter arrays. Nothing outlives the run but
what it exports (the cells C built go to the tables' row lists); a Rubik
controller keeps only the run's
:class:`~repro.core.decision_kernel.KernelStats`. Nothing is imported
from an earlier run either: ``Rubik.setup`` gives every run a fresh
profiler, trimmer and refresh clock, and :meth:`create` rejects a core
whose meter has recorded time.

The core may carry no batch work, or exactly a
:class:`~repro.coloc.batch.BatchTask` background with a
:class:`~repro.coloc.interference.MicroarchInterference` penalty (a
colocated core): the C loop repeats those two models' arithmetic — the
BATCH segments, the task's instruction and run-time sums, the refill
penalty charged to the first request after a batch interval, and the
batch frequency request once the queue drains.  Any other background
or penalty callable keeps the Python event loop.

Everything the Python event loop would have produced — the completions
(left as columns: :attr:`Core.completed` builds the :class:`Request`
records on first read), meter totals and residency maps, segment log,
DVFS transition count/history/pending state, the profiler window and
counts, the trimmer's target, integral and window, the batch task's
and the interference model's sums, and the simulator clock and event
count — is exported back at the end, so ``finalize``/``RunResult`` code
runs unchanged and the results are bitwise-identical to the Python
loop.
"""

from __future__ import annotations

import ctypes
import functools
import math
from bisect import bisect_left
from collections import deque
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.analysis.windows import RollingTailEstimator
from repro.core._native import build
from repro.core._native.kernel import _DP, _IP, RKState, _bind
from repro.core.decision_kernel import CERT_MIN_QUEUE, KernelStats
from repro.core.feedback import LatencyTargetTrimmer
from repro.core.histogram import Histogram
from repro.core.profiler import ZERO_MEMORY_WIDTH, DemandProfiler
from repro.power.energy import STATE_CODES, EnergyMeter
from repro.power.model import CorePowerModel
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import CompletionColumns

#: Segment-log rows between flushes; allocated only when the core logs
#: its segments.
_SEG_CAP = 2048
#: DVFS-history pairs between flushes; allocated only when the core
#: records its history.
_HIST_CAP = 8192

#: Tail-table row capacity first allocated per row (at least
#: ``max_explicit``); doubled on demand.
_ROW_CAP = 64

#: Bucket width of each stream's point-mass snapshot (cycles, memory),
#: as ``DemandProfiler.snapshot`` builds it.
_POINT_WIDTHS = (1.0, ZERO_MEMORY_WIDTH)

#: rk_span's return codes (rubik_native.c).
RK_DONE = 0
RK_NEED_ROWS = 1
RK_SURFACE = 2
RK_FLUSH_SEGMENTS = 3
RK_FLUSH_HISTORY = 4
RK_CHIP_KEY = 5

#: LC frequency policies (rubik_native.c's ``lc_policy``): Rubik's
#: Eq. 2, StaticColoc's fixed LC frequency, or no request at all.
LC_EQ2 = 0
LC_FIXED = 1
LC_NONE = 2

#: Most cores ``rk_chip`` steps: its frequency table has a row per
#: occupant mask, ``2**cores`` of them.
_CHIP_MAX_CORES = 8

#: Segment state code -> CoreState, for the open segment's export.
_STATE_OF_CODE = {code: state for state, code in STATE_CODES.items()}

#: KernelStats field -> the rk_state counter C keeps it in.
_STAT_FIELDS = (
    ("idle_decisions", "st_idle"), ("warmup_decisions", "st_warmup"),
    ("fast_arrivals", "st_fast_arr"), ("fast_completions", "st_fast_comp"),
    ("lean_folds", "st_lean"), ("cert_folds", "st_cert"),
    ("invalidations_tables", "st_inv_tables"),
    ("invalidations_target", "st_inv_target"),
    ("invalidations_row", "st_inv_row"),
    ("invalidations_epoch", "st_inv_epoch"))


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(_DP)


def _iptr(arr: np.ndarray):
    return arr.ctypes.data_as(_IP)


def policy_dvfs(core: Core, scheme, policy: int):
    """The DVFS config whose grid C looks frequencies up on: Rubik's
    decision grid under Eq. 2, else the core's own."""
    return scheme.context.dvfs if policy == LC_EQ2 else core.dvfs.config


def policy_grid(core: Core, scheme, policy: int) -> List[float]:
    return [float(f) for f in policy_dvfs(core, scheme, policy).frequencies]


def check_demands(trace) -> None:
    """Raise the ``ValueError`` a ``Request`` record raises for a
    negative or an all-zero demand, before C serves the trace."""
    cycles = np.asarray(trace.compute_cycles)
    memory = np.asarray(trace.memory_time_s)
    if (cycles < 0).any() or (memory < 0).any():
        raise ValueError("demands must be non-negative")
    if ((cycles == 0) & (memory == 0)).any():
        raise ValueError("request must have positive demand")


@functools.lru_cache(maxsize=64)
def _column_layout(base_len: int, max_explicit: int):
    """(FFT size bound, power-buffer length) of a table: the size
    ``TailTable._grow_row`` takes for each column 1..max_explicit-1
    (at least a power of two covering the base, which column 0's CDF
    needs), and one half spectrum (``size + 2`` doubles) per column's
    power."""
    sizes = [1 << (base_len + i * (base_len - 1) - 1).bit_length()
             for i in range(1, max_explicit)]
    return (max(sizes, default=1 << (base_len - 1).bit_length()),
            sum(size + 2 for size in sizes))


class NativeTailRows:
    """The C side of a Rubik run's bound tail-table pair.

    C reads each row from arrays owned here and, when a decide finds a
    row short, builds the missing explicit cells itself (``tt_grow`` in
    rubik_native.c): the conditioning, its own real FFT at
    ``_grow_row``'s size, and the quantile index, accepted only when it
    is certain to equal numpy's. A cell it cannot certify (a near-tie)
    and every CLT position past ``max_explicit`` come back as
    ``RK_NEED_ROWS``, and :meth:`serve` has the table build them.

    C binds every table switch itself, from the demand snapshot it
    surfaced with (``rk_bind``: the bases, bucket widths and row
    bounds). The resolved pair is a pure function of that snapshot — a
    cache hit's fingerprint is its pmf bytes and widths — so its bases
    and bounds are the snapshot's bit for bit, and :meth:`bind` only
    copies a hit's built rows in. The tables' append-only row lists
    stay the record: :meth:`write_back` appends the cells C built to
    them, before a refresh resolves a pair and at the run's end, so
    cache hits, ``RefreshStats`` and every later read see what the
    Python kernel would have left.

    Every buffer C uses (the bases, bounds, rows, transforms, powers,
    twiddles and scratch) is an array owned here, allocated once for
    the largest table the run's profiler can produce: ``max_buckets``
    buckets and ``max_explicit`` columns. Only the rows grow, for the
    CLT positions. Index 0 is the cycles table, 1 the memory table.
    """

    def __init__(self, st: RKState, lib, nrows: int, max_buckets: int,
                 max_explicit: int, quantile: float) -> None:
        self._st = st
        self._ref = ctypes.byref(st)
        self._rk_bind = lib.rk_bind
        #: The bound ``TargetTailTables`` (None before the first).
        self.tables = None
        fft_max, pow_len = _column_layout(max_buckets, max_explicit)
        width = fft_max + 2
        self._snap = np.zeros((2, nrows), dtype=np.float64)
        self._bounds = np.zeros((2, nrows), dtype=np.float64)
        self._rowlen = np.zeros((2, nrows), dtype=np.int64)
        self._rsize = np.zeros((2, nrows), dtype=np.int64)
        self._base = np.zeros((2, max_buckets), dtype=np.float64)
        self._pow = np.zeros((2, pow_len), dtype=np.float64)
        self._btr = np.zeros((2, width), dtype=np.float64)
        self._rtr = np.zeros((2, nrows * width), dtype=np.float64)
        self._tw = np.zeros(width, dtype=np.float64)
        self._scratch = np.zeros(width, dtype=np.float64)
        st.nrows = nrows
        st.snap_bounds = _dptr(self._snap)
        st.cbounds, st.mbounds = map(_dptr, self._bounds)
        st.rowlen_c, st.rowlen_m = map(_iptr, self._rowlen)
        st.tt_rsize_c, st.tt_rsize_m = map(_iptr, self._rsize)
        st.tt_base_c, st.tt_base_m = map(_dptr, self._base)
        st.tt_pow_c, st.tt_pow_m = map(_dptr, self._pow)
        st.tt_btr_c, st.tt_btr_m = map(_dptr, self._btr)
        st.tt_rtr_c, st.tt_rtr_m = map(_dptr, self._rtr)
        st.tt_tw = _dptr(self._tw)
        st.tt_scratch = _dptr(self._scratch)
        st.tt_fft_max = fft_max
        st.tt_max_explicit = max_explicit
        st.tt_eps_q[0] = st.tt_eps_q[1] = quantile - 1e-12
        self._row_cap = 0
        self._grow_rows(max(_ROW_CAP, max_explicit))

    def snapshot_bounds(self) -> List[List[float]]:
        """The (cycles, memory) row bounds C computed for the snapshot
        it surfaced with."""
        return self._snap.tolist()

    def bind(self, tables) -> None:
        """Point C at the pair a refresh resolved for the snapshot C
        surfaced with: C binds the snapshot, then a hit's built rows
        are copied in."""
        self.tables = tables
        self._rk_bind(self._ref)
        for t, table in enumerate((tables.cycles, tables.memory)):
            for row, tails in table._row_lists.items():
                length = len(tails)
                if length > self._row_cap:
                    self._grow_rows(length)
                self._rows[t, row, :length] = tails
                self._rowlen[t, row] = length

    def write_back(self) -> None:
        """Append the cells C built to the bound tables' row lists."""
        if self.tables is None:
            return
        for t, lengths in enumerate(self._rowlen.tolist()):
            for row, length in enumerate(lengths):
                if length:
                    self._write_row(t, row, length)

    def serve(self, t: int, row: int, need: int) -> None:
        """Build table ``t``'s row to ``need`` in Python, after the cells
        C built, and hand the new cells to C."""
        have = int(self._rowlen[t, row])
        self._write_row(t, row, have)
        tails = self._table(t).extended_row_list(row, need)
        if len(tails) > self._row_cap:
            self._grow_rows(len(tails))
        self._rows[t, row, have:len(tails)] = tails[have:]
        self._rowlen[t, row] = len(tails)

    # ------------------------------------------------------------------
    def _table(self, t: int):
        return self.tables.memory if t else self.tables.cycles

    def _write_row(self, t: int, row: int, length: int) -> None:
        """Extend the row's list to C's first ``length`` cells (the list
        is always a prefix of C's row)."""
        lists = self._table(t)._row_lists
        tails = lists.get(row)
        listed = 0 if tails is None else len(tails)
        if length > listed:
            cells = self._rows[t, row, listed:length].tolist()
            if tails is None:
                lists[row] = cells
            else:
                tails.extend(cells)

    def _grow_rows(self, need: int) -> None:
        cap = max(self._row_cap, 1)
        while cap < need:
            cap *= 2
        rows = np.zeros((2, self._rowlen.shape[1], cap), dtype=np.float64)
        if self._row_cap:
            rows[:, :, :self._row_cap] = self._rows
        self._rows = rows
        self._row_cap = cap
        st = self._st
        st.rows_c, st.rows_m = map(_dptr, rows)
        st.row_cap = cap


class NativeRunSession:
    """One served core's run (a ``run_trace`` core or one colocated
    core) driven through ``rk_span``, or one core of a
    :class:`NativeChipSession`."""

    def __init__(self, sim: Simulator, core: Core, scheme, lib,
                 grid, trace, policy: int = LC_EQ2,
                 lc_hz: float = 0.0) -> None:
        self.sim = sim
        self.core = core
        #: The Rubik controller of an Eq. 2 core, else None.
        self.rubik = scheme if policy == LC_EQ2 else None
        self._lib = lib
        # Zero-filled: only the non-zero starting values are set below.
        st = self._st = RKState()
        self._ref = ctypes.byref(st)
        st.lc_policy = policy
        st.lc_hz = lc_hz
        #: The run's decision-path counters (Eq. 2 only). The controller
        #: holds this object (its refreshes count the carries); C's
        #: branch counters are copied in at the finish.
        self.stats = KernelStats() if self.rubik is not None else None

        # The grid and the fold's starting keys.
        decision_dvfs = policy_dvfs(core, scheme, policy)
        self._grid = grid
        self._grid_arr = np.array(grid, dtype=np.float64)
        self._inv_grid_arr = np.array([1.0 / f for f in grid],
                                      dtype=np.float64)
        st.grid = _dptr(self._grid_arr)
        st.inv_grid = _dptr(self._inv_grid_arr)
        st.nsteps = len(grid)
        st.nominal_idx = min(
            bisect_left(grid, decision_dvfs.nominal_hz - 1e-9),
            len(grid) - 1)
        st.min_hz = decision_dvfs.min_hz
        st.max_hz = decision_dvfs.max_hz
        st.cert_min_queue = CERT_MIN_QUEUE
        st.k_tables_gen = -1
        st.k_row_c = -1
        st.k_row_m = -1
        st.k_epoch = -1
        st.mono_ok = 1

        # Private copies: the columns outlive the run (core.completed
        # builds its records from them on first read).
        n = len(trace)
        self._arrivals = np.array(trace.arrivals, dtype=np.float64)
        self._cycles = np.ascontiguousarray(trace.compute_cycles,
                                            dtype=np.float64)
        self._memory = np.array(trace.memory_time_s, dtype=np.float64)
        self._predicted = np.array(trace.predicted_cycles, dtype=np.float64)
        self._out_start = np.zeros(n, dtype=np.float64)
        self._out_finish = np.zeros(n, dtype=np.float64)
        # Served cycles, penalty included. Its own array: the trace
        # column above may be the trace's array itself.
        self._out_cycles = np.zeros(n, dtype=np.float64)
        self._decision_log = np.zeros(
            2 * n if self.rubik is not None else 0, dtype=np.float64)
        self._events_committed = 0

        st.now = sim.now
        st.tr_arrival = _dptr(self._arrivals)
        st.tr_cycles = _dptr(self._cycles)
        st.tr_memory = _dptr(self._memory)
        st.out_start = _dptr(self._out_start)
        st.out_finish = _dptr(self._out_finish)
        st.out_cycles = _dptr(self._out_cycles)
        st.decision_log = _dptr(self._decision_log)
        st.n_req = n

        # Queues: the arrival-time ring (current + queued) and the
        # waiting-request FIFO, both sized for the worst case (the C
        # side never grows them).
        cap = 1
        while cap < n + 1:
            cap *= 2
        self._arr_ring = np.zeros(cap, dtype=np.float64)
        st.arr_ring = _dptr(self._arr_ring)
        st.arr_mask = cap - 1
        st.queue_epoch = core.queue_epoch
        self._rid_ring = np.zeros(cap, dtype=np.int64)
        st.rid_ring = _iptr(self._rid_ring)
        st.rq_mask = cap - 1

        # DVFS domain import (the lazy state machine continues in C).
        # The latency is the core's: ``run_trace(dvfs_config=...)`` may
        # override the context's.
        dvfs = core.dvfs
        st.trans_latency = dvfs.config.transition_latency_s
        st.cur_hz = dvfs._current_hz
        st.pending_valid = int(dvfs._pending_target is not None)
        st.pending_target = (dvfs._pending_target
                             if dvfs._pending_target is not None else 0.0)
        st.pending_apply_at = dvfs._pending_apply_at
        st.latched_valid = int(dvfs._latched_target is not None)
        st.latched_target = (dvfs._latched_target
                             if dvfs._latched_target is not None else 0.0)
        st.transitions = dvfs.transitions
        st.record_history = int(dvfs.history is not None)
        hist_cap = _HIST_CAP if dvfs.history is not None else 0
        self._hist = np.zeros(2 * hist_cap, dtype=np.float64)
        st.hist_buf = _dptr(self._hist)
        st.hist_cap = hist_cap
        unacct = dvfs._unaccounted
        st.unacct_n = len(unacct)
        for i, (at, freq) in enumerate(unacct):
            st.unacct[2 * i] = at
            st.unacct[2 * i + 1] = freq

        # Open segment and segment log.
        st.seg_start = core._segment_start
        st.seg_code = float(core._seg_code)
        st.seg_freq = core._seg_freq
        st.seg_mem_frac = core._seg_mem_frac
        st.log_segments = int(core.segment_log is not None)
        seg_cap = _SEG_CAP if core.segment_log is not None else 0
        self._segs = np.zeros((seg_cap, 3), dtype=np.float64)
        st.seg_buf = _dptr(self._segs)
        st.seg_cap = seg_cap

        self._import_meter()

        # Colocated batch work import (see eligible()).
        background = core.background
        st.batch_on = int(background is not None)
        if background is not None:
            profile = background.profile
            interference = core._interference_cycles
            st.batch_hz = background.preferred_frequency(dvfs.config)
            st.batch_cpi = profile.cpi_core
            st.batch_mem_s = profile.mem_ns_per_instr * 1e-9
            st.batch_instr = background.instructions
            st.batch_time = background.run_time_s
            st.pen_max = interference.max_penalty_cycles
            st.pen_tau = interference.tau_s
            st.pen_total = interference.total_penalty_cycles
            st.pen_count = interference.penalized_requests
        interval_start = core._batch_interval_start
        st.batch_interval_valid = int(interval_start is not None)
        st.batch_interval_start = (interval_start
                                   if interval_start is not None else 0.0)

        rubik = self.rubik
        if rubik is not None:
            # Refresh guard.
            st.profiler_min_samples = rubik.profiler.min_samples
            st.refresh_period = rubik.update_period_s
            st.last_table_update = rubik._last_table_update
            st.samples_at_last_update = rubik._samples_at_last_update
            self._import_profiler()
            self._import_trimmer(n)
            self._rows = NativeTailRows(
                st, lib, rubik.num_rows, rubik.profiler.num_buckets,
                rubik.max_explicit, rubik.context.tail_quantile)

        # Mid-run meter/segment-log readers call flush_accounting(),
        # which exports the C sums before folding the Python buffer.
        core._external_flush = self._flush

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, sim: Simulator, core: Core, scheme, trace,
               policy: int = LC_EQ2,
               lc_hz: float = 0.0) -> Optional["NativeRunSession"]:
        """Build a session for ``scheme`` under ``policy`` (``lc_hz`` is
        ``LC_FIXED``'s frequency) when the library loads and the run is
        eligible (see :meth:`eligible`), else None.

        Raises the ``ValueError`` the Python loop's ``Request`` records
        raise for a trace with a negative or all-zero demand.
        """
        lib = build.load_library()
        if lib is None or sim._heap:
            return None
        grid = policy_grid(core, scheme, policy)
        if not cls.eligible(sim, core, scheme, trace, policy, lc_hz,
                            [scheme], grid):
            return None
        check_demands(trace)
        return cls(sim, core, scheme, _bind(lib), grid, trace, policy,
                   lc_hz)

    @classmethod
    def eligible(cls, sim: Simulator, core: Core, scheme, trace,
                 policy: int, lc_hz: float, listeners: list,
                 grid: List[float]) -> bool:
        """Whether the C loop models this core's run, its simulator's
        pending events aside.

        Eligibility is deliberately conservative: any instrumentation or
        configuration the C loop does not model (a background other than
        a ``BatchTask`` with a ``MicroarchInterference`` penalty,
        listeners other than ``listeners``, monkeypatched core methods,
        subclassed simulator, core, profiler, trimmer, meter or power
        model, a frequency off ``grid``, pre-populated state: a queue,
        completions, a profiler or trimmer window, bound tables, a meter
        with recorded time, an arrival before the clock) falls back to
        the Python event loop, which handles everything.
        """
        # The Python loop starts an arrival that predates the clock at
        # the clock (``schedule_entry`` clamps it); C does not clamp.
        if len(trace) == 0 or trace.arrivals[0] < sim.now:
            return False
        if type(sim) is not Simulator or type(core) is not Core:
            return False
        background = core.background
        penalty = core._interference_cycles
        if background is None:
            if penalty is not None:
                return False
        else:
            # Imported here so a run without batch work never loads the
            # colocation package (which sits above this one).
            from repro.coloc.batch import BatchTask
            from repro.coloc.interference import MicroarchInterference
            if (type(background) is not BatchTask
                    or type(penalty) is not MicroarchInterference):
                return False  # C repeats exactly these two models
        if (core.current is not None or core.queue or core._pending_arrivals
                or core._columns is not None or core._completed
                or core._segment_buffer):
            return False
        if core.listeners != listeners:
            return False
        # A monkeypatched hot-path method (decision recorders in the
        # oracle tests) must observe every call: stay on the Python loop.
        for name in ("request_frequency", "enqueue", "flush_accounting"):
            if name in core.__dict__:
                return False
        if core.dvfs.on_retarget is None or not core.dvfs._track_boundaries:
            return False
        # C repeats these models' arithmetic, and nothing else, and
        # starts each of them empty.
        meter = core.meter
        if (type(meter) is not EnergyMeter or meter.total_time_s
                or type(meter.model) is not CorePowerModel):
            return False
        if policy == LC_EQ2:
            profiler = scheme.profiler
            if (type(profiler) is not DemandProfiler
                    or profiler.total_observed or scheme.tables is not None):
                return False
            trimmer = scheme.trimmer
            if trimmer is not None and (
                    type(trimmer) is not LatencyTargetTrimmer
                    or type(trimmer._estimator) is not RollingTailEstimator
                    or trimmer._estimator.count()):
                return False
        grid_set = set(grid)
        if policy == LC_FIXED and lc_hz not in grid_set:
            return False
        return cls._frequencies_on_grid(core, grid_set)

    @staticmethod
    def _frequencies_on_grid(core: Core, grid: Set[float]) -> bool:
        """The C meter looks every segment frequency up on the grid: the
        imported frequencies must be on it (requests always are)."""
        dvfs = core.dvfs
        freqs = [dvfs._current_hz, core._seg_freq]
        freqs += [f for f in (dvfs._pending_target, dvfs._latched_target)
                  if f is not None]
        freqs += [f for _, f in dvfs._unaccounted]
        if core.background is not None:
            freqs.append(core.background.preferred_frequency(dvfs.config))
        return all(f in grid for f in freqs)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive the span loop to completion and export final state."""
        span = self._lib.rk_span
        ref = self._ref
        while True:
            rc = span(ref)
            if rc == RK_DONE:
                break
            if rc == RK_NEED_ROWS:
                self._fill_rows()
            elif rc == RK_SURFACE:
                self._refresh()
            elif rc == RK_FLUSH_SEGMENTS:
                self._flush_segments()
            elif rc == RK_FLUSH_HISTORY:
                self._flush_history()
            else:
                raise RuntimeError(f"native span failed (rc={rc})")
        self._finish()

    # ------------------------------------------------------------------
    # surfacing protocol
    # ------------------------------------------------------------------
    def _commit_clock(self) -> None:
        st = self._st
        self.sim.absorb_span(st.now, st.events - self._events_committed)
        self._events_committed = st.events

    def _refresh(self) -> None:
        """A table refresh is due before the owed decision: hand C's
        profiler snapshot and row bounds to the controller, and bind
        the resolved tables when they changed. The trimmer's target
        stays C's."""
        self._commit_clock()
        st = self._st
        rubik = self.rubik
        rows = self._rows
        # The cache's hit accounting (columns_carried) and any later
        # holder of the bound pair read the cells C built.
        rows.write_back()
        rubik._refresh_tables(self._histogram(0), self._histogram(1),
                              st.observed_total, rows.snapshot_bounds())
        st.last_table_update = rubik._last_table_update
        st.samples_at_last_update = rubik._samples_at_last_update
        tables = rubik.tables
        if tables is not rows.tables:
            rows.bind(tables)

    def _histogram(self, stream: int) -> Histogram:
        """Stream ``stream``'s snapshot, as ``DemandProfiler.snapshot``
        builds it: C's normalized pmf, or the point mass at zero when
        the window's maximum is not positive."""
        st = self._st
        if not st.prof_valid[stream]:
            return Histogram.point_mass(
                0.0, bucket_width=_POINT_WIDTHS[stream])
        return Histogram._from_normalized(st.prof_width[stream],
                                          self._prof_pmf[stream].copy())

    # ------------------------------------------------------------------
    # table binding / row filling
    # ------------------------------------------------------------------
    def _fill_rows(self) -> None:
        """Service RK_NEED_ROWS: Python builds the rows C could not (a
        near-tie cell, or the CLT positions)."""
        st = self._st
        rows = self._rows
        if st.need_len_c:
            rows.serve(0, st.need_row_c, st.need_len_c)
        if st.need_len_m:
            rows.serve(1, st.need_row_m, st.need_len_m)

    # ------------------------------------------------------------------
    # imports (session start)
    # ------------------------------------------------------------------
    def _import_profiler(self) -> None:
        """Size the profiler's window arrays; the window starts empty."""
        st = self._st
        profiler = self.rubik.profiler
        window, buckets = profiler.window, profiler.num_buckets
        self._prof_ring = np.zeros((2, window), dtype=np.float64)
        self._prof_counts = np.zeros((2, buckets), dtype=np.int64)
        self._prof_pmf = np.zeros((2, buckets), dtype=np.float64)
        st.prof_window = window
        st.prof_buckets = buckets
        st.prof_ring = _dptr(self._prof_ring)
        st.prof_counts = _iptr(self._prof_counts)
        st.prof_pmf = _dptr(self._prof_pmf)
        for k in range(2):
            st.prof_max[k] = -np.inf
            st.prof_rebin[k] = 1
            st.prof_point_width[k] = _POINT_WIDTHS[k]

    def _import_trimmer(self, n: int) -> None:
        st = self._st
        trimmer = self.rubik.trimmer
        st.trimmer_on = int(trimmer is not None)
        if trimmer is None:
            st.target = self.rubik.context.latency_bound_s
            return
        estimator = trimmer._estimator
        self._tr_scratch = np.zeros(n, dtype=np.float64)
        st.tr_scratch = _dptr(self._tr_scratch)
        st.trimmer_period = trimmer.adjust_period_s
        st.trimmer_last_adjust = trimmer._last_adjust
        st.tr_bound = trimmer.bound_s
        st.tr_window_s = estimator.window_s
        st.tr_pct = estimator.pct
        st.tr_kp = trimmer.kp
        st.tr_ki = trimmer.ki
        st.tr_min_scale = trimmer.min_scale
        st.tr_max_scale = trimmer.max_scale
        st.tr_min_samples = trimmer.min_window_samples
        st.tr_integral = trimmer._integral
        st.target = trimmer.internal_target_s

    def _import_meter(self) -> None:
        """The power model's cached terms per grid step; the meter's
        sums and residency maps start at zero."""
        st = self._st
        model = self.core.meter.model
        self._m_fl = np.array([model.power_terms(f) for f in self._grid],
                              dtype=np.float64)
        self._m_res = np.zeros((2, len(self._grid)), dtype=np.float64)
        self._m_rank = np.zeros((2, len(self._grid)), dtype=np.int64)
        st.m_fl = _dptr(self._m_fl)
        st.m_res = _dptr(self._m_res)
        st.m_rank = _iptr(self._m_rank)
        st.m_sleep_w = model.sleep_power_w
        st.m_stall = model.stall_activity

    # ------------------------------------------------------------------
    # output draining
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """``core._external_flush``: export the meter sums and drain the
        segment log (mid-run readers, and the finish)."""
        self._export_meter()
        self._flush_segments()

    def _export_meter(self) -> None:
        st = self._st
        meter = self.core.meter
        meter.energy_j = st.m_energy
        meter.total_time_s = st.m_total_time
        meter.active_energy_j = st.m_busy_energy
        meter.busy_time_s = st.m_busy_time
        meter.batch_energy_j = st.m_batch_energy
        meter.batch_time_s = st.m_batch_time
        meter.idle_energy_j = st.m_idle_energy
        grid = self._grid
        for k, residency in enumerate((meter._freq_residency,
                                       meter._busy_freq_residency)):
            ranks = self._m_rank[k]
            seen = np.flatnonzero(ranks)
            for idx in seen[np.argsort(ranks[seen])].tolist():
                residency[grid[idx]] = float(self._m_res[k, idx])

    def _flush_segments(self) -> None:
        st = self._st
        count = st.seg_count
        if count:
            self.core.segment_log.extend(
                map(tuple, self._segs[:count].tolist()))
            st.seg_count = 0

    def _flush_history(self) -> None:
        st = self._st
        count = st.hist_count
        if count:
            flat = self._hist[:2 * count]
            self.core.dvfs.history.extend(
                zip(flat[0::2].tolist(), flat[1::2].tolist()))
            st.hist_count = 0

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Export every piece of state the Python loop would have left
        behind, so ``finalize``/``RunResult`` run unchanged. Every
        request has completed: no run stops with requests in flight."""
        st = self._st
        assert st.completed == st.n_req and st.arr_len == 0
        assert not st.has_current and st.rq_len == 0
        core = self.core
        self._commit_clock()
        self._flush()
        self._flush_history()

        dvfs = core.dvfs
        dvfs._current_hz = st.cur_hz
        dvfs._pending_target = (st.pending_target if st.pending_valid
                                else None)
        dvfs._pending_apply_at = st.pending_apply_at
        dvfs._latched_target = (st.latched_target if st.latched_valid
                                else None)
        dvfs.transitions = st.transitions
        # A decide's early-returning request can leave applied-but-
        # unconsumed boundaries, exactly like the Python path; finalize's
        # close consumes them.
        dvfs._unaccounted = [
            (st.unacct[2 * i], st.unacct[2 * i + 1])
            for i in range(st.unacct_n)]

        core._segment_start = st.seg_start
        code = int(st.seg_code)
        core._seg_code = code
        core._seg_state = _STATE_OF_CODE[code]
        core._seg_freq = st.seg_freq
        core._seg_mem_frac = st.seg_mem_frac
        core.queue_epoch = st.queue_epoch
        core.current = None
        core._completion_entry = None
        core._batch_interval_start = (st.batch_interval_start
                                      if st.batch_interval_valid else None)
        if st.batch_on:
            background = core.background
            background.instructions = st.batch_instr
            background.run_time_s = st.batch_time
            interference = core._interference_cycles
            interference.total_penalty_cycles = st.pen_total
            interference.penalized_requests = st.pen_count

        if self.rubik is not None:
            self._rows.write_back()
            self._export_profiler()
            self._export_trimmer()
            for field, counter in _STAT_FIELDS:
                setattr(self.stats, field, getattr(st, counter))
        core._columns = CompletionColumns(
            self._arrivals, self._out_start, self._out_finish,
            self._out_cycles, self._memory, self._predicted)
        core._completed = None  # built from the columns on first read
        core._external_flush = None

    def _export_profiler(self) -> None:
        """Leave the profiler as the Python loop leaves it: the window,
        its maxima, the counts (when current) and the total."""
        st = self._st
        profiler = self.rubik.profiler
        order = (st.prof_head + np.arange(st.prof_len)) % st.prof_window
        for k, stream in enumerate((profiler._cycles, profiler._memory)):
            stream.samples = deque(self._prof_ring[k, order].tolist())
            stream.max_value = st.prof_max[k]
            stream._max_count = st.prof_max_count[k]
            stream._added.clear()
            stream._evicted.clear()
            if st.prof_rebin[k] or st.prof_max[k] <= 0.0:
                stream._counts = None
                stream._width = 0.0
                stream._rebin = True
            else:
                stream._counts = self._prof_counts[k].astype(float)
                stream._width = st.prof_width[k]
                stream._rebin = False
        profiler.total_observed = st.observed_total

    def _export_trimmer(self) -> None:
        st = self._st
        trimmer = self.rubik.trimmer
        if trimmer is None:
            return
        trimmer._integral = st.tr_integral
        trimmer._last_adjust = st.trimmer_last_adjust
        trimmer.internal_target_s = st.target
        estimator = trimmer._estimator
        lo = st.tr_lo
        finish = self._out_finish[lo:]
        latency = finish - self._arrivals[lo:]
        estimator._samples = deque(zip(finish.tolist(), latency.tolist()))
        estimator._last_time = max(estimator._last_time,
                                   float(self._out_finish[-1]))


class NativeChipSession:
    """The cores of an HW-T/HW-TPW server and its chip allocator's lazy
    ticks, stepped together through ``rk_chip``.

    Each core runs as an ``LC_NONE`` :class:`NativeRunSession` (the HW
    scheme requests nothing; the allocator sets every frequency). C
    keeps the tick chain and requests each core's frequency from a
    table with one row per occupant mask (bit ``c`` set while core
    ``c`` serves an LC request). A mask C has not seen yet surfaces:
    the allocator's memoized :meth:`ChipLevelAllocator.assignment`
    fills its row, exactly as the Python tick fills its memo.
    """

    def __init__(self, sim: Simulator, allocator, sessions, lib) -> None:
        self.sim = sim
        self.allocator = allocator
        self._sessions = sessions
        self._lib = lib
        n = len(sessions)
        self._table = np.zeros((1 << n, n), dtype=np.float64)
        self._known = np.zeros(1 << n, dtype=np.int64)
        # The Simulator's sequence numbers as the coupled loop stamps
        # them: the allocator's first tick 0, each core's first arrival
        # 1..n in core order.
        self._seq = np.array([n + 1], dtype=np.int64)
        self._tick_seq = np.zeros(1, dtype=np.int64)
        self._tick_at = np.array([allocator._boundary + allocator.period_s],
                                 dtype=np.float64)
        self._boundary = np.array([allocator._boundary], dtype=np.float64)
        self._ticks = np.zeros(1, dtype=np.int64)
        for c, session in enumerate(sessions):
            session._st.seq_next = _iptr(self._seq)
            session._st.arr_seq = c + 1
        self._cores = (ctypes.POINTER(RKState) * n)(
            *(ctypes.pointer(session._st) for session in sessions))
        horizon = allocator.horizon_s
        self._args = (
            n, self._cores, allocator.period_s,
            math.inf if horizon is None else horizon,
            sum(len(s._arrivals) for s in sessions),
            _dptr(self._table), _iptr(self._known), _iptr(self._seq),
            _iptr(self._tick_seq), _dptr(self._tick_at),
            _dptr(self._boundary), _iptr(self._ticks))

    @classmethod
    def create(cls, sim: Simulator, allocator,
               traces: Sequence) -> Optional["NativeChipSession"]:
        """Take over a freshly built server — the allocator's first tick
        its simulator's only event, no arrival fed yet — when the
        library loads and every core is eligible, else None (and the
        simulator is left untouched).

        Eligible: a plain ``ChipLevelAllocator`` over at most
        ``_CHIP_MAX_CORES`` cores sharing one frequency grid, each a
        plain core whose only listeners are its ``HwScheme`` and the
        allocator (see :meth:`NativeRunSession.eligible`). A subclassed
        allocator, scheme, core or simulator, another background or an
        extra listener keeps the coupled Python loop.

        Raises the ``Request`` records' ``ValueError`` for a trace with
        a negative or all-zero demand.
        """
        lib = build.load_library()
        if lib is None:
            return None
        # Imported here: the colocation package sits above this one.
        from repro.coloc.schemes import ChipLevelAllocator, HwScheme
        cores = allocator.cores
        if (type(allocator) is not ChipLevelAllocator
                or allocator.sim is not sim
                or not 0 < len(cores) <= _CHIP_MAX_CORES
                or len(traces) != len(cores)):
            return None
        heap = sim._heap
        if not (allocator._queued and len(heap) == 1
                and heap[0][3] == allocator._tick
                and heap[0][0] == allocator._boundary + allocator.period_s):
            return None
        grid = [float(f) for f in allocator._grid]
        for core, trace in zip(cores, traces):
            scheme = core.listeners[0] if core.listeners else None
            if (type(scheme) is not HwScheme
                    or policy_grid(core, scheme, LC_NONE) != grid
                    or not NativeRunSession.eligible(
                        sim, core, scheme, trace, LC_NONE, 0.0,
                        [scheme, allocator], grid)):
                return None
        for trace in traces:
            check_demands(trace)
        lib = _bind(lib)
        sessions = [NativeRunSession(sim, core, core.listeners[0], lib,
                                     grid, trace, LC_NONE)
                    for core, trace in zip(cores, traces)]
        heap[0][3] = None  # the first tick is C's now
        return cls(sim, allocator, sessions, lib)

    def run(self) -> float:
        """Step the server until every request has completed, export
        every core, and return the stop time (the simulator's clock).

        The C loop also stops past the allocator's horizon, as the
        Python loop does; the horizon ``run_colocated_server`` sets
        (the last arrival + 100 s) lies far past any run's end, so
        ``_finish`` asserts that no request is left in flight."""
        chip = self._lib.rk_chip
        args = self._args
        while True:
            rc = chip(*args)
            if rc == RK_DONE:
                break
            if rc == RK_CHIP_KEY:
                self._fill_row()
            elif rc == RK_FLUSH_SEGMENTS:
                for session in self._sessions:
                    session._flush_segments()
            elif rc == RK_FLUSH_HISTORY:
                for session in self._sessions:
                    session._flush_history()
            else:
                raise RuntimeError(f"native chip loop failed (rc={rc})")
        for session in self._sessions:
            session._finish()
        self.sim.absorb_span(self.sim.now, int(self._ticks[0]))
        return self.sim.now

    def _fill_row(self) -> None:
        """A tick met an occupant mask C has not seen: fill its row
        from the allocator's memoized assignment."""
        serving = [bool(session._st.has_current)
                   for session in self._sessions]
        mask = sum(1 << c for c, lc in enumerate(serving) if lc)
        allocator = self.allocator
        self._table[mask] = allocator.assignment(
            allocator.occupant_key(serving))
        self._known[mask] = 1
