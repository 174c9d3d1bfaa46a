"""ctypes mirror of the native Rubik kernel (per-event decide path).

:class:`RKState` replicates ``rk_state`` in ``rubik_native.c``
field-for-field (every field is 8 bytes wide, so there is no padding to
disagree on; the constructor asserts ``sizeof`` against the library's
``rk_state_size()``).  :class:`NativeDecisionKernel` is the drop-in
native decision path (``Rubik(path="auto")`` with the library loaded):
it owns the numpy arrays the C side points into
(DVFS grid, flattened tail-table row lists, the arrival-time ring),
keeps them in sync with the controller between calls, and routes the
decided frequency through ``core.request_frequency`` in Python so
listeners, recorders and the DVFS domain see exactly the calls the
Python kernels make.

Row-list state round-trips across ``TailTableCache`` refresh carries
the same way :class:`repro.core.decision_kernel.DecisionKernel` does:
table identity maps to a generation counter (bumped only when the pair
object actually changes), and the flattened rows are filled lazily from
the tables' own append-only per-row caches on ``RK_NEED_ROWS``.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_left
from typing import Optional

import numpy as np

from repro.core._native import build
from repro.core.decision_kernel import CERT_MIN_QUEUE, KernelStats

_DP = ctypes.POINTER(ctypes.c_double)
_IP = ctypes.POINTER(ctypes.c_int64)
_VP = ctypes.c_void_p

# Return codes / phases (rubik_native.c).
RK_OK = 0
RK_DONE = 0
RK_NEED_ROWS = 1
RK_SURFACE = 2
RK_FLUSH_SEGMENTS = 3
RK_FLUSH_HISTORY = 4
RK_ERROR = 5
PH_NEXT = 0
PH_DECIDE = 1


class RKState(ctypes.Structure):
    """Field-for-field mirror of ``rk_state`` (see rubik_native.c)."""

    _fields_ = [
        # grid / config
        ("grid", _DP),
        ("inv_grid", _DP),
        ("nsteps", ctypes.c_int64),
        ("nominal_idx", ctypes.c_int64),
        ("min_hz", ctypes.c_double),
        ("max_hz", ctypes.c_double),
        ("trans_latency", ctypes.c_double),
        ("cert_min_queue", ctypes.c_int64),
        # evaluation context
        ("tables_ready", ctypes.c_int64),
        ("tables_gen", ctypes.c_int64),
        ("target", ctypes.c_double),
        ("cbounds", _DP),
        ("mbounds", _DP),
        ("nrows", ctypes.c_int64),
        ("rows_c", _DP),
        ("rows_m", _DP),
        ("rowlen_c", _IP),
        ("rowlen_m", _IP),
        ("row_cap", ctypes.c_int64),
        # queue mirror
        ("arr_ring", _DP),
        ("arr_mask", ctypes.c_int64),
        ("arr_head", ctypes.c_int64),
        ("arr_len", ctypes.c_int64),
        ("queue_epoch", ctypes.c_int64),
        # kernel incremental state
        ("certs", ctypes.c_int64),
        ("k_tables_gen", ctypes.c_int64),
        ("k_row_c", ctypes.c_int64),
        ("k_row_m", ctypes.c_int64),
        ("k_target", ctypes.c_double),
        ("mono_ok", ctypes.c_int64),
        ("mono_len", ctypes.c_int64),
        ("k_epoch", ctypes.c_int64),
        ("k_n", ctypes.c_int64),
        ("k_fidx", ctypes.c_int64),
        ("k_witness", ctypes.c_int64),
        ("k_any_h", ctypes.c_int64),
        ("tau_abs", ctypes.c_double),
        ("sigma_abs", ctypes.c_double),
        # decide I/O
        ("elapsed_c", ctypes.c_double),
        ("elapsed_m", ctypes.c_double),
        ("decided_hz", ctypes.c_double),
        ("need_row_c", ctypes.c_int64),
        ("need_row_m", ctypes.c_int64),
        ("need_len", ctypes.c_int64),
        # KernelStats branch counters
        ("st_idle", ctypes.c_int64),
        ("st_warmup", ctypes.c_int64),
        ("st_fast_arr", ctypes.c_int64),
        ("st_fast_comp", ctypes.c_int64),
        ("st_lean", ctypes.c_int64),
        ("st_cert", ctypes.c_int64),
        ("st_inv_tables", ctypes.c_int64),
        ("st_inv_target", ctypes.c_int64),
        ("st_inv_row", ctypes.c_int64),
        ("st_inv_epoch", ctypes.c_int64),
        # span-mode state
        ("span_mode", ctypes.c_int64),
        ("phase", ctypes.c_int64),
        ("now", ctypes.c_double),
        ("events", ctypes.c_int64),
        ("tr_arrival", _DP),
        ("tr_cycles", _DP),
        ("tr_memory", _DP),
        ("out_start", _DP),
        ("out_finish", _DP),
        ("decision_log", _DP),
        ("n_req", ctypes.c_int64),
        ("next_arrival", ctypes.c_int64),
        ("decision_count", ctypes.c_int64),
        ("rid_ring", _IP),
        ("rq_mask", ctypes.c_int64),
        ("rq_head", ctypes.c_int64),
        ("rq_len", ctypes.c_int64),
        ("has_current", ctypes.c_int64),
        ("cur_rid", ctypes.c_int64),
        ("cur_C", ctypes.c_double),
        ("cur_M", ctypes.c_double),
        ("cur_progress", ctypes.c_double),
        ("completion_valid", ctypes.c_int64),
        ("completion_time", ctypes.c_double),
        ("cur_hz", ctypes.c_double),
        ("pending_valid", ctypes.c_int64),
        ("pending_target", ctypes.c_double),
        ("pending_apply_at", ctypes.c_double),
        ("latched_valid", ctypes.c_int64),
        ("latched_target", ctypes.c_double),
        ("transitions", ctypes.c_int64),
        ("record_history", ctypes.c_int64),
        ("hist_buf", _DP),
        ("hist_cap", ctypes.c_int64),
        ("hist_count", ctypes.c_int64),
        ("unacct", ctypes.c_double * 8),
        ("unacct_n", ctypes.c_int64),
        ("seg_buf", _DP),
        ("seg_cap", ctypes.c_int64),
        ("seg_count", ctypes.c_int64),
        ("seg_start", ctypes.c_double),
        ("seg_code", ctypes.c_double),
        ("seg_freq", ctypes.c_double),
        ("seg_mem_frac", ctypes.c_double),
        # listener-phase bookkeeping
        ("completed", ctypes.c_int64),
        ("observed_total", ctypes.c_int64),
        ("profiler_min_samples", ctypes.c_int64),
        ("refresh_period", ctypes.c_double),
        ("last_table_update", ctypes.c_double),
        ("samples_at_last_update", ctypes.c_int64),
        ("trimmer_on", ctypes.c_int64),
        ("trimmer_period", ctypes.c_double),
        ("trimmer_last_adjust", ctypes.c_double),
        # served (penalized) compute cycles
        ("out_cycles", _DP),
        # colocated batch work
        ("batch_on", ctypes.c_int64),
        ("batch_hz", ctypes.c_double),
        ("batch_cpi", ctypes.c_double),
        ("batch_mem_s", ctypes.c_double),
        ("batch_instr", ctypes.c_double),
        ("batch_time", ctypes.c_double),
        ("batch_interval_valid", ctypes.c_int64),
        ("batch_interval_start", ctypes.c_double),
        ("pen_max", ctypes.c_double),
        ("pen_tau", ctypes.c_double),
        ("pen_total", ctypes.c_double),
        ("pen_count", ctypes.c_int64),
        # demand profiler window
        ("prof_window", ctypes.c_int64),
        ("prof_buckets", ctypes.c_int64),
        ("prof_ring", _DP),
        ("prof_head", ctypes.c_int64),
        ("prof_len", ctypes.c_int64),
        ("prof_max", ctypes.c_double * 2),
        ("prof_max_count", ctypes.c_int64 * 2),
        ("prof_width", ctypes.c_double * 2),
        ("prof_rebin", ctypes.c_int64 * 2),
        ("prof_valid", ctypes.c_int64 * 2),
        ("prof_counts", _IP),
        ("prof_pmf", _DP),
        # PI trimmer
        ("tr_bound", ctypes.c_double),
        ("tr_window_s", ctypes.c_double),
        ("tr_pct", ctypes.c_double),
        ("tr_kp", ctypes.c_double),
        ("tr_ki", ctypes.c_double),
        ("tr_min_scale", ctypes.c_double),
        ("tr_max_scale", ctypes.c_double),
        ("tr_min_samples", ctypes.c_int64),
        ("tr_integral", ctypes.c_double),
        ("tr_lo", ctypes.c_int64),
        ("tr_scratch", _DP),
        # energy meter
        ("m_fl", _DP),
        ("m_sleep_w", ctypes.c_double),
        ("m_stall", ctypes.c_double),
        ("m_energy", ctypes.c_double),
        ("m_total_time", ctypes.c_double),
        ("m_busy_energy", ctypes.c_double),
        ("m_busy_time", ctypes.c_double),
        ("m_batch_energy", ctypes.c_double),
        ("m_batch_time", ctypes.c_double),
        ("m_idle_energy", ctypes.c_double),
        ("m_res", _DP),
        ("m_rank", _IP),
        ("m_seen", ctypes.c_int64 * 2),
        ("log_segments", ctypes.c_int64),
    ]


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(_DP)


def _iptr(arr: np.ndarray):
    return arr.ctypes.data_as(_IP)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Set prototypes once per loaded library and sanity-check the ABI.

    The oracle entry points take plain addresses as ``c_void_p``: their
    callers read each array's ``ctypes.data`` once per search instead of
    building a typed pointer on every call.
    """
    if not getattr(lib, "_repro_prototypes_bound", False):
        lib.rk_state_size.restype = ctypes.c_int64
        lib.rk_abi_version.restype = ctypes.c_int64
        lib.rk_decide_entry.argtypes = [ctypes.POINTER(RKState)]
        lib.rk_decide_entry.restype = ctypes.c_int64
        lib.rk_span.argtypes = [ctypes.POINTER(RKState)]
        lib.rk_span.restype = ctypes.c_int64
        lib.rk_lindley.argtypes = [
            ctypes.c_int64, _VP, _VP, _VP, _VP, ctypes.c_double,
            _VP, _VP, _VP]
        lib.rk_lindley.restype = ctypes.c_int64
        lib.rk_dyn_round.argtypes = [
            ctypes.c_int64, _VP, _VP, _VP, _VP, _VP, ctypes.c_int64,
            ctypes.c_double, ctypes.c_int64, _VP, _VP, _VP, _VP, _VP,
            _VP, _VP]
        lib.rk_dyn_round.restype = ctypes.c_int64
        lib.rk_percentile.argtypes = [ctypes.c_int64, _VP, ctypes.c_double,
                                      _VP]
        lib.rk_percentile.restype = ctypes.c_double
        size = lib.rk_state_size()
        if size != ctypes.sizeof(RKState):
            raise RuntimeError(
                f"native rk_state is {size} bytes but the ctypes mirror "
                f"is {ctypes.sizeof(RKState)} — struct layouts drifted")
        lib._repro_prototypes_bound = True
    return lib


def oracle_library() -> Optional[ctypes.CDLL]:
    """The library with its prototypes bound, for the oracle searches'
    per-request loops; None when :func:`build.load_library` gives none
    (``REPRO_NATIVE=0``, no C compiler), and the searches run numpy."""
    lib = build.load_library()
    return None if lib is None else _bind(lib)


class NativeDecisionKernel:
    """Native (C) evaluator of Eq. 2 with the DecisionKernel interface.

    Exposes the same surface the controller relies on — ``decide(core)``,
    ``note_refresh_carry()`` and ``stats`` — so
    :class:`repro.core.controller.Rubik` binds either kernel's
    ``decide`` the same way.
    """

    def __init__(self, controller) -> None:
        lib = build.load_library()
        if lib is None:
            raise RuntimeError("native kernel library is not available")
        self._lib = _bind(lib)
        self.controller = controller
        self._refresh_carries = 0

        st = self._st = RKState()  # zero-initialised by ctypes
        self._ref = ctypes.byref(st)

        dvfs = controller.context.dvfs
        grid = [float(f) for f in dvfs.frequencies]
        self._grid_arr = np.array(grid, dtype=np.float64)
        self._inv_grid_arr = np.array([1.0 / f for f in grid],
                                      dtype=np.float64)
        st.grid = _dptr(self._grid_arr)
        st.inv_grid = _dptr(self._inv_grid_arr)
        st.nsteps = len(grid)
        st.nominal_idx = min(
            bisect_left(grid, dvfs.nominal_hz - 1e-9), len(grid) - 1)
        st.min_hz = dvfs.min_hz
        st.max_hz = dvfs.max_hz
        st.cert_min_queue = CERT_MIN_QUEUE

        # Incremental-state keys: nothing cached yet.
        st.k_tables_gen = -1
        st.k_row_c = -1
        st.k_row_m = -1
        st.k_epoch = -1
        st.mono_ok = 1

        # Arrival-time ring (mirrors core._pending_arrivals).
        self._ring_arr = np.zeros(256, dtype=np.float64)
        st.arr_ring = _dptr(self._ring_arr)
        st.arr_mask = self._ring_arr.size - 1

        # Table row storage, bound lazily on the first tables sighting.
        self._tables_obj = None
        self._cbounds_arr: Optional[np.ndarray] = None
        self._mbounds_arr: Optional[np.ndarray] = None
        self._rows_c_arr: Optional[np.ndarray] = None
        self._rows_m_arr: Optional[np.ndarray] = None
        self._rowlen_c_arr: Optional[np.ndarray] = None
        self._rowlen_m_arr: Optional[np.ndarray] = None
        self._row_cap = 64

    # ------------------------------------------------------------------
    # DecisionKernel-compatible surface
    # ------------------------------------------------------------------
    @property
    def stats(self) -> KernelStats:
        """Branch counters, materialized from the C struct."""
        st = self._st
        return KernelStats(
            idle_decisions=st.st_idle,
            warmup_decisions=st.st_warmup,
            fast_arrivals=st.st_fast_arr,
            fast_completions=st.st_fast_comp,
            lean_folds=st.st_lean,
            cert_folds=st.st_cert,
            invalidations_tables=st.st_inv_tables,
            invalidations_target=st.st_inv_target,
            invalidations_row=st.st_inv_row,
            invalidations_epoch=st.st_inv_epoch,
            refresh_carries=self._refresh_carries,
        )

    def note_refresh_carry(self) -> None:
        """A refresh re-resolved to the same table pair; state survived."""
        self._refresh_carries += 1

    # ------------------------------------------------------------------
    def decide(self, core) -> None:
        """Emit the Eq. 2 frequency request for the current queue."""
        ctrl = self.controller
        st = self._st
        pending = core._pending_arrivals
        n = len(pending)
        epoch = core.queue_epoch
        if epoch != st.queue_epoch or n != st.arr_len:
            self._sync_ring(pending, epoch, n)
        if n:
            tables = ctrl.tables
            if tables is not self._tables_obj:
                self._bind_tables(tables)
            if tables is not None:
                trimmer = ctrl.trimmer
                st.target = (trimmer.internal_target_s
                             if trimmer is not None
                             else ctrl.context.latency_bound_s)
                st.now = ctrl.sim.now
                elapsed_c, elapsed_m = core.current_request_elapsed()
                st.elapsed_c = elapsed_c
                st.elapsed_m = elapsed_m
        rc = self._lib.rk_decide_entry(self._ref)
        while rc == RK_NEED_ROWS:
            self._fill_rows()
            rc = self._lib.rk_decide_entry(self._ref)
        if rc != RK_OK:
            raise RuntimeError(f"native decide failed (rc={rc})")
        core.request_frequency(st.decided_hz)

    # ------------------------------------------------------------------
    # queue-mirror maintenance
    # ------------------------------------------------------------------
    def _sync_ring(self, pending, epoch: int, n: int) -> None:
        st = self._st
        if epoch == st.queue_epoch + 1 and n == st.arr_len + 1:
            # Exactly one arrival since the last decision: push.
            if n > st.arr_mask:
                self._grow_ring(n)
            self._ring_arr[(st.arr_head + st.arr_len) & st.arr_mask] = (
                pending[-1])
            st.arr_len = n
        elif epoch == st.queue_epoch + 1 and n == st.arr_len - 1:
            # Exactly one completion: pop the head.
            st.arr_head = (st.arr_head + 1) & st.arr_mask
            st.arr_len = n
        else:
            # Skipped deltas (mid-run toggle, first sighting): rebuild.
            if n > st.arr_mask:
                self._grow_ring(n)
            if n:
                self._ring_arr[:n] = list(pending)
            st.arr_head = 0
            st.arr_len = n
        st.queue_epoch = epoch

    def _grow_ring(self, need: int) -> None:
        st = self._st
        cap = self._ring_arr.size
        new_cap = cap
        while new_cap <= need:
            new_cap *= 2
        new = np.zeros(new_cap, dtype=np.float64)
        ln = st.arr_len
        for i in range(ln):  # unwrap the old ring in logical order
            new[i] = self._ring_arr[(st.arr_head + i) & st.arr_mask]
        self._ring_arr = new
        st.arr_ring = _dptr(new)
        st.arr_mask = new_cap - 1
        st.arr_head = 0

    # ------------------------------------------------------------------
    # table binding / row filling
    # ------------------------------------------------------------------
    def _bind_tables(self, tables) -> None:
        st = self._st
        self._tables_obj = tables
        if tables is None:
            st.tables_ready = 0
            return
        cbounds = tables.cycles._row_bounds_list
        mbounds = tables.memory._row_bounds_list
        nrows = len(cbounds)
        assert len(mbounds) == nrows
        if self._cbounds_arr is None or nrows != st.nrows:
            self._cbounds_arr = np.empty(nrows, dtype=np.float64)
            self._mbounds_arr = np.empty(nrows, dtype=np.float64)
            self._rows_c_arr = np.zeros((nrows, self._row_cap),
                                        dtype=np.float64)
            self._rows_m_arr = np.zeros((nrows, self._row_cap),
                                        dtype=np.float64)
            self._rowlen_c_arr = np.zeros(nrows, dtype=np.int64)
            self._rowlen_m_arr = np.zeros(nrows, dtype=np.int64)
            st.cbounds = _dptr(self._cbounds_arr)
            st.mbounds = _dptr(self._mbounds_arr)
            st.rows_c = _dptr(self._rows_c_arr)
            st.rows_m = _dptr(self._rows_m_arr)
            st.rowlen_c = _iptr(self._rowlen_c_arr)
            st.rowlen_m = _iptr(self._rowlen_m_arr)
            st.nrows = nrows
            st.row_cap = self._row_cap
        self._cbounds_arr[:] = cbounds
        self._mbounds_arr[:] = mbounds
        self._rowlen_c_arr[:] = 0
        self._rowlen_m_arr[:] = 0
        st.tables_ready = 1
        st.tables_gen += 1

    def _fill_rows(self) -> None:
        """Service RK_NEED_ROWS: copy the tables' (append-only) cached
        row lists into the flattened arrays, delta-only per row."""
        st = self._st
        tables = self._tables_obj
        n = st.need_len
        crow = tables.cycles.extended_row_list(st.need_row_c, n)
        mrow = tables.memory.extended_row_list(st.need_row_m, n)
        need = max(len(crow), len(mrow))
        if need > st.row_cap:
            self._grow_rows(need)
        rc, rm = st.need_row_c, st.need_row_m
        old_c = int(self._rowlen_c_arr[rc])
        if len(crow) > old_c:
            self._rows_c_arr[rc, old_c:len(crow)] = crow[old_c:]
            self._rowlen_c_arr[rc] = len(crow)
        old_m = int(self._rowlen_m_arr[rm])
        if len(mrow) > old_m:
            self._rows_m_arr[rm, old_m:len(mrow)] = mrow[old_m:]
            self._rowlen_m_arr[rm] = len(mrow)

    def _grow_rows(self, need: int) -> None:
        st = self._st
        new_cap = self._row_cap
        while new_cap < need:
            new_cap *= 2
        nrows = st.nrows
        for attr_rows, attr_ptr in (("_rows_c_arr", "rows_c"),
                                    ("_rows_m_arr", "rows_m")):
            old = getattr(self, attr_rows)
            new = np.zeros((nrows, new_cap), dtype=np.float64)
            new[:, :self._row_cap] = old
            setattr(self, attr_rows, new)
            setattr(st, attr_ptr, _dptr(new))
        self._row_cap = new_cap
        st.row_cap = new_cap
