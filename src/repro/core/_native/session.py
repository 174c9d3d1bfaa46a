"""Whole-run native event loop (the ``rk_span`` driver).

When a run served by :func:`repro.sim.server.serve` (``run_trace``, and
each RubikColoc core of a colocated server) is *eligible* — a plain
:class:`~repro.sim.core.Core`, a :class:`~repro.core.controller.Rubik`
resolved to the native path whose class overrides no event hook, and an
un-instrumented simulator — the entire event loop (event pop, clock
advance, arrival/completion fold, Eq. 2 decision, DVFS state machine,
segment accounting, completion scheduling) runs inside the C library
and only *surfaces* to Python when Python-owned state must act:

* ``RK_NEED_ROWS`` — the decision fold needs a longer tail-table row;
* ``RK_SURFACE`` — a table refresh or trimmer adjustment *could* fire
  before the next decision (the C side mirrors the controller's guards
  exactly, so it surfaces if and only if Python would do work);
* ``RK_FLUSH_SEGMENTS`` / ``RK_FLUSH_HISTORY`` — an output buffer
  needs draining into the meter / history list.

The core may carry no batch work, or exactly a
:class:`~repro.coloc.batch.BatchTask` background with a
:class:`~repro.coloc.interference.MicroarchInterference` penalty (a
colocated core): the C loop repeats those two models' arithmetic — the
BATCH segments, the task's instruction and run-time sums, the refill
penalty charged to the first request after a batch interval, and the
batch frequency request once the queue drains.  Any other background
or penalty callable keeps the Python event loop.

Profiler and trimmer observations are buffered (the C side only counts
them) and replayed in completion order at each surfacing — invisible
otherwise, because that state is read exclusively at refresh/adjust
points, which always surface.  The profiler observes each request's
served cycles, penalty included, which C writes to a session-owned
column.  Everything the Python event loop would have produced —
completed :class:`Request` records, meter totals, segment log, DVFS
transition count/history/pending state, the batch task's and the
interference model's sums, the simulator clock and event count — is
exported back at the end, so ``finalize``/``RunResult`` code runs
unchanged and the results are bitwise-identical to the Python kernel
path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core._native.kernel import (
    PH_NEXT,
    RK_DONE,
    RK_FLUSH_HISTORY,
    RK_FLUSH_SEGMENTS,
    RK_NEED_ROWS,
    RK_SURFACE,
    NativeDecisionKernel,
    _dptr,
    _iptr,
)
from repro.power.energy import STATE_CODES
from repro.sim.core import Core
from repro.sim.engine import Simulator

#: Segment-buffer rows between meter flushes (a flush is
#: bitwise-neutral). Kept small because every session allocates its own:
#: at 65,536 rows (the Python core's ``_FLUSH_THRESHOLD``) the per-core
#: sessions of a serial fig15 + fig16 sweep raised its peak RSS by 2 MB.
_SEG_CAP = 2048
#: DVFS-history pairs between flushes; allocated only when the core
#: records its history.
_HIST_CAP = 8192

#: Segment state code -> CoreState, for the open segment's export.
_STATE_OF_CODE = {code: state for state, code in STATE_CODES.items()}

#: RKState pointer fields aimed at session-owned arrays; cleared at the
#: end so the kernel's struct does not keep a finished run's buffers.
_SESSION_POINTERS = ("tr_arrival", "tr_cycles", "tr_memory", "out_start",
                     "out_finish", "out_cycles", "decision_log", "rid_ring",
                     "hist_buf", "seg_buf")


class NativeRunSession:
    """One served run (a ``run_trace`` core or one colocated core)
    driven through ``rk_span``."""

    def __init__(self, sim: Simulator, core: Core, rubik,
                 kernel: NativeDecisionKernel, trace) -> None:
        self.sim = sim
        self.core = core
        self.rubik = rubik
        self.kernel = kernel
        self.trace = trace
        st = self._st = kernel._st

        n = len(trace)
        self._arrivals = np.ascontiguousarray(trace.arrivals,
                                              dtype=np.float64)
        self._cycles = np.ascontiguousarray(trace.compute_cycles,
                                            dtype=np.float64)
        self._memory = np.ascontiguousarray(trace.memory_time_s,
                                            dtype=np.float64)
        self._out_start = np.zeros(n, dtype=np.float64)
        self._out_finish = np.zeros(n, dtype=np.float64)
        # Served cycles, penalty included. Its own array: the trace
        # columns above may be the trace's arrays themselves.
        self._out_cycles = np.zeros(n, dtype=np.float64)
        self._decision_log = np.zeros(2 * n, dtype=np.float64)
        # Python-float copies for the buffered observe replay (identical
        # values to the Request attributes the listener path reads).
        self._arr_list = self._arrivals.tolist()
        self._mem_list = self._memory.tolist()
        self._obs_flushed = 0
        self._events_committed = 0

        st.span_mode = 1
        st.phase = PH_NEXT
        st.now = sim.now
        st.events = 0
        st.tr_arrival = _dptr(self._arrivals)
        st.tr_cycles = _dptr(self._cycles)
        st.tr_memory = _dptr(self._memory)
        st.out_start = _dptr(self._out_start)
        st.out_finish = _dptr(self._out_finish)
        st.out_cycles = _dptr(self._out_cycles)
        st.decision_log = _dptr(self._decision_log)
        st.n_req = n
        st.next_arrival = 0
        st.decision_count = 0

        # Queues: the arrival ring (shared with the per-event path) and
        # the waiting-request FIFO, both sized for the worst case (the
        # C side never grows them).
        kernel._grow_ring(n + 1)
        cap = 1
        while cap < n + 1:
            cap *= 2
        self._rid_ring = np.zeros(cap, dtype=np.int64)
        st.rid_ring = _iptr(self._rid_ring)
        st.rq_mask = cap - 1
        st.rq_head = 0
        st.rq_len = 0
        st.has_current = 0
        st.completion_valid = 0

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
        st.hist_count = 0
        unacct = dvfs._unaccounted
        st.unacct_n = len(unacct)
        for i, (at, freq) in enumerate(unacct):
            st.unacct[2 * i] = at
            st.unacct[2 * i + 1] = freq

        # Segment accounting import.
        self._segs = np.zeros((_SEG_CAP, 5), dtype=np.float64)
        st.seg_buf = _dptr(self._segs)
        st.seg_cap = _SEG_CAP
        st.seg_count = 0
        st.seg_start = core._segment_start
        st.seg_code = float(core._seg_code)
        st.seg_freq = core._seg_freq
        st.seg_mem_frac = core._seg_mem_frac

        # Colocated batch work import (a RubikColoc core; see create()).
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

        # Listener-phase bookkeeping (refresh / trimmer surfacing).
        st.completed = 0
        st.observed_total = rubik.profiler.total_observed
        st.profiler_min_samples = rubik.profiler.min_samples
        st.refresh_period = rubik.update_period_s
        st.last_table_update = rubik._last_table_update
        st.samples_at_last_update = rubik._samples_at_last_update
        trimmer = rubik.trimmer
        st.trimmer_on = int(trimmer is not None)
        st.trimmer_period = (trimmer.adjust_period_s
                             if trimmer is not None else 0.0)
        st.trimmer_last_adjust = (trimmer._last_adjust
                                  if trimmer is not None else 0.0)
        self._sync_eval_context()

        # Mid-run meter/segment-log readers call flush_accounting();
        # the C rows are chronologically older than anything the Python
        # buffer could accumulate, so they drain first.
        core._external_flush = self._flush_segments

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, sim: Simulator, core: Core, rubik,
               trace) -> Optional["NativeRunSession"]:
        """Build a session when the run is eligible, else None.

        Eligibility is deliberately conservative: any instrumentation or
        configuration the C loop does not model (a background other than
        a ``BatchTask`` with a ``MicroarchInterference`` penalty, extra
        listeners, monkeypatched core methods, subclassed simulator/core,
        pre-populated state) falls back to the Python event loop, which
        handles everything.
        """
        if len(trace) == 0:
            return None
        if type(sim) is not Simulator or type(core) is not Core:
            return None
        if sim._heap:
            return None
        background = core.background
        penalty = core._interference_cycles
        if background is None:
            if penalty is not None:
                return None
        else:
            # Imported here so a run without batch work never loads the
            # colocation package (which sits above this one).
            from repro.coloc.batch import BatchTask
            from repro.coloc.interference import MicroarchInterference
            if (type(background) is not BatchTask
                    or type(penalty) is not MicroarchInterference):
                return None  # C repeats exactly these two models' arithmetic
        if (core.current is not None or core.queue or core._pending_arrivals
                or core.completed or core._segment_buffer):
            return None
        if core.listeners != [rubik]:
            return None
        # A monkeypatched hot-path method (decision recorders in the
        # oracle tests) must observe every call: stay on the Python loop.
        for name in ("request_frequency", "enqueue", "flush_accounting"):
            if name in core.__dict__:
                return None
        if core.dvfs.on_retarget is None or not core.dvfs._track_boundaries:
            return None
        kernel = rubik._kernel
        if not isinstance(kernel, NativeDecisionKernel):
            return None  # setup() bound another path
        return cls(sim, core, rubik, kernel, trace)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive the span loop to completion and export final state."""
        lib = self.kernel._lib
        ref = self.kernel._ref
        fill_rows = self.kernel._fill_rows
        st = self._st
        while True:
            rc = lib.rk_span(ref)
            if rc == RK_DONE:
                break
            if rc == RK_NEED_ROWS:
                fill_rows()
            elif rc == RK_SURFACE:
                self._surface()
            elif rc == RK_FLUSH_SEGMENTS:
                self._flush_segments()
            elif rc == RK_FLUSH_HISTORY:
                self._flush_history()
            else:
                raise RuntimeError(f"native span failed (rc={rc})")
        assert st.completed == st.n_req and st.arr_len == 0
        assert not st.has_current and st.rq_len == 0
        self._finish()

    # ------------------------------------------------------------------
    # surfacing protocol
    # ------------------------------------------------------------------
    def _commit_clock(self) -> None:
        st = self._st
        self.sim.absorb_span(st.now, st.events - self._events_committed)
        self._events_committed = st.events

    def _replay_observations(self) -> None:
        """Feed buffered completions to the profiler/trimmer, in
        completion order (== rid order: FIFO, single server)."""
        st = self._st
        start, end = self._obs_flushed, st.completed
        if end == start:
            return
        self._obs_flushed = end
        observe = self.rubik.profiler.observe
        # The served cycles: the profiler sees the penalty too.
        cycles = self._out_cycles[start:end].tolist()
        mems = self._mem_list[start:end]
        trimmer = self.rubik.trimmer
        if trimmer is None:
            for c, m in zip(cycles, mems):
                observe(c, m)
            return
        arrivals = self._arr_list[start:end]
        fins = self._out_finish[start:end].tolist()
        t_observe = trimmer.observe
        for c, m, arrival, finish in zip(cycles, mems, arrivals, fins):
            observe(c, m)
            t_observe(finish, finish - arrival)

    def _surface(self) -> None:
        """A refresh or trimmer adjustment may fire before the owed
        decision: replay observations, run the controller's refresh,
        re-sync the evaluation context, re-enter."""
        self._commit_clock()
        self._replay_observations()
        self.rubik._maybe_refresh_tables()
        st = self._st
        st.last_table_update = self.rubik._last_table_update
        st.samples_at_last_update = self.rubik._samples_at_last_update
        st.observed_total = self.rubik.profiler.total_observed
        trimmer = self.rubik.trimmer
        if trimmer is not None:
            st.trimmer_last_adjust = trimmer._last_adjust
        self._sync_eval_context()

    def _sync_eval_context(self) -> None:
        st = self._st
        rubik = self.rubik
        tables = rubik.tables
        if tables is not self.kernel._tables_obj:
            self.kernel._bind_tables(tables)
        trimmer = rubik.trimmer
        st.target = (trimmer.internal_target_s if trimmer is not None
                     else rubik.context.latency_bound_s)

    # ------------------------------------------------------------------
    # output draining
    # ------------------------------------------------------------------
    def _flush_segments(self) -> None:
        """Drain closed C segments into the meter (and segment log) —
        the native half of ``Core.flush_accounting``, same arithmetic."""
        st = self._st
        count = st.seg_count
        if not count:
            return
        seg = self._segs[:count]
        st.seg_count = 0
        starts = seg[:, 0].copy()
        ends = seg[:, 1].copy()
        durations = ends - starts
        energies = self.core.meter.record_segments(
            durations, seg[:, 2].copy(), seg[:, 3].copy(), seg[:, 4].copy())
        if self.core.segment_log is not None:
            powers = energies / durations
            self.core.segment_log.extend(
                zip(starts.tolist(), ends.tolist(), powers.tolist()))

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
        behind, so ``finalize``/``RunResult`` run unchanged."""
        from repro.sim.request import Request

        st = self._st
        core = self.core
        self._commit_clock()
        self._replay_observations()
        self._flush_segments()
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
        st.unacct_n = 0

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

        starts = self._out_start.tolist()
        fins = self._out_finish.tolist()
        cycles = self._out_cycles.tolist()
        pred = self.trace.predicted_cycles
        completed = core.completed
        for i in range(st.n_req):
            completed.append(Request(
                rid=i,
                arrival_time=self._arr_list[i],
                compute_cycles=cycles[i],
                memory_time_s=self._mem_list[i],
                start_time=starts[i],
                finish_time=fins[i],
                progress=1.0,
                predicted_cycles=float(pred[i]),
            ))

        core._external_flush = None
        st.span_mode = 0
        st.phase = PH_NEXT
        for name in _SESSION_POINTERS:
            setattr(st, name, None)
