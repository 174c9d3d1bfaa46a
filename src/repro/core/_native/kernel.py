"""ctypes binding of the native library.

:class:`RKState` replicates ``rk_state`` in ``rubik_native.c``
field-for-field (every field is 8 bytes wide, so there is no padding to
disagree on; :func:`_bind` asserts ``sizeof`` against the library's
``rk_state_size()``).  :func:`_bind` sets every entry point's
prototype once per loaded library.  The library has two users: the
session module (:mod:`repro.core._native.session`), whose span and
chip loops own one ``RKState`` per core and pass the chip's own state
as plain arguments, and the oracle searches (:func:`oracle_library`).
"""

from __future__ import annotations

import ctypes
from typing import Optional

from repro.core._native import build

_DP = ctypes.POINTER(ctypes.c_double)
_IP = ctypes.POINTER(ctypes.c_int64)
_VP = ctypes.c_void_p


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
        # span-loop state
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
        # LC frequency policy
        ("lc_policy", ctypes.c_int64),
        ("lc_hz", ctypes.c_double),
        # Simulator sequence numbers (chip loop)
        ("seq_next", _IP),
        ("arr_seq", ctypes.c_int64),
        ("comp_seq", ctypes.c_int64),
    ]


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Set prototypes once per loaded library and sanity-check the ABI.

    The oracle entry points take plain addresses as ``c_void_p``: their
    callers read each array's ``ctypes.data`` once per search instead of
    building a typed pointer on every call.
    """
    if not getattr(lib, "_repro_prototypes_bound", False):
        lib.rk_state_size.restype = ctypes.c_int64
        lib.rk_abi_version.restype = ctypes.c_int64
        lib.rk_span.argtypes = [ctypes.POINTER(RKState)]
        lib.rk_span.restype = ctypes.c_int64
        lib.rk_chip.argtypes = [
            ctypes.c_int64, ctypes.POINTER(ctypes.POINTER(RKState)),
            ctypes.c_double, ctypes.c_double, ctypes.c_int64, _DP, _IP,
            _IP, _IP, _DP, _DP, _IP]
        lib.rk_chip.restype = ctypes.c_int64
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
