/* Native Rubik decision fold + event-step kernel (perf layer 7).
 *
 * One translation unit, no Python headers: the library is loaded
 * through ctypes (src/repro/core/_native/kernel.py binds it).  A core
 * runs through rk_span, the whole-run span loop driven by session.py,
 * under one LC frequency policy: Rubik's Eq. 2, a fixed LC frequency
 * (StaticColoc) or none (a fixed-frequency run); an Eq. 2 core's table
 * refreshes bind through rk_bind.  rk_chip steps the
 * cores of an HW-T/HW-TPW server together with the chip allocator's
 * ticks; the oracle searches call rk_lindley and rk_dyn_round.  Every
 * floating-point expression mirrors the Python implementation in
 * repro/core/decision_kernel.py, repro/sim/dvfs.py, repro/sim/core.py,
 * repro/core/profiler.py, repro/core/feedback.py,
 * repro/analysis/windows.py, repro/power/energy.py,
 * repro/coloc/batch.py, repro/coloc/interference.py and
 * repro/coloc/schemes.py operation-for-operation: compiled for baseline
 * x86-64/AArch64 with -ffp-contract=off, each individual IEEE-754
 * double add/sub/mul/div rounds exactly like the CPython float op, so
 * the emitted decisions, segment boundaries and completion times are
 * bitwise-identical to the Python paths (the scalar oracle remains the
 * pin; see tests/core/test_decision_kernel.py and
 * test_native_kernel.py).  The one libm call is exp() in the
 * interference penalty, the function math.exp calls, so it rounds the
 * same (linked with -lm).
 *
 * The struct layout below is mirrored field-for-field by
 * kernel.RKState (ctypes.Structure).  Every field is 8 bytes wide
 * (double / int64 / pointer), so there is no padding to disagree on;
 * rk_state_size() lets the binding assert the mirror never drifts.
 */

#include <math.h>
#include <stdint.h>

typedef int64_t i64;

/* Return codes of rk_span (and of the fold, rk_decide). */
#define RK_OK 0
#define RK_DONE 0
#define RK_NEED_ROWS 1    /* Python builds need_row_c/need_row_m, re-enter */
#define RK_SURFACE 2      /* a table refresh is due (pmfs ready), re-enter */
#define RK_FLUSH_SEGMENTS 3
#define RK_FLUSH_HISTORY 4
#define RK_CHIP_KEY 5     /* rk_chip: a tick met an unseen occupant mask */

/* LC frequency policies (lc_policy): what the core's scheme requests on
 * each arrival and completion, before the batch request a drained
 * colocated core makes. */
#define LC_EQ2 0     /* Rubik: the Eq. 2 decision, profiler, trimmer */
#define LC_FIXED 1   /* StaticColoc: lc_hz while a request is in service */
#define LC_NONE 2    /* nothing (a fixed-frequency or an HW core) */

/* Span-loop phase (resume point after a surfacing return). */
#define PH_NEXT 0    /* pick + process the next event */
#define PH_DECIDE 1  /* event processed; the decide is still owed */

/* Segment state codes (repro/power/energy.py). */
#define SEG_BUSY 0.0
#define SEG_BATCH 1.0
#define SEG_IDLE 2.0

#define RK_INF (__builtin_inf())

typedef struct {
    /* -- grid / config (constant for the session's lifetime) --------- */
    double *grid;        /* [nsteps] ascending DVFS frequencies */
    double *inv_grid;    /* [nsteps] 1.0 / grid[i] (Python-computed) */
    i64 nsteps;
    i64 nominal_idx;
    double min_hz;
    double max_hz;
    double trans_latency;
    i64 cert_min_queue;

    /* -- evaluation context (bound by the session) ------------------- */
    i64 tables_ready;    /* controller.tables is not None */
    i64 tables_gen;      /* bumped whenever the table pair object changes */
    double target;       /* trimmer internal target (or latency bound) */
    double *cbounds;     /* [nrows] cycles-table row lower bounds */
    double *mbounds;     /* [nrows] memory-table row lower bounds */
    i64 nrows;
    double *rows_c;      /* [nrows * row_cap] flattened cycles row lists */
    double *rows_m;      /* [nrows * row_cap] flattened memory row lists */
    i64 *rowlen_c;       /* [nrows] filled prefix per cycles row */
    i64 *rowlen_m;       /* [nrows] filled prefix per memory row */
    i64 row_cap;

    /* -- queue mirror: arrival times of current + queued, oldest first */
    double *arr_ring;    /* [arr_mask + 1] */
    i64 arr_mask;        /* capacity - 1 (capacity is a power of two) */
    i64 arr_head;
    i64 arr_len;
    i64 queue_epoch;     /* mirrors Core.queue_epoch */

    /* -- kernel incremental state (DecisionKernel slots) ------------- */
    i64 certs;
    i64 k_tables_gen;    /* _tables identity of the cached row pair */
    i64 k_row_c;
    i64 k_row_m;
    double k_target;
    i64 mono_ok;
    i64 mono_len;
    i64 k_epoch;
    i64 k_n;
    i64 k_fidx;
    i64 k_witness;
    i64 k_any_h;
    double tau_abs;
    double sigma_abs;

    /* -- decide I/O -------------------------------------------------- */
    double decided_hz;   /* out: the Eq. 2 frequency request */
    i64 need_row_c;      /* out on RK_NEED_ROWS: the rows, and the */
    i64 need_row_m;
    i64 need_len_c;      /* length Python must build each to (0: none) */
    i64 need_len_m;

    /* -- KernelStats branch counters --------------------------------- */
    i64 st_idle;
    i64 st_warmup;
    i64 st_fast_arr;
    i64 st_fast_comp;
    i64 st_lean;
    i64 st_cert;
    i64 st_inv_tables;
    i64 st_inv_target;
    i64 st_inv_row;
    i64 st_inv_epoch;

    /* ================= span-loop state ============================== */
    i64 phase;           /* PH_NEXT / PH_DECIDE */
    double now;
    i64 events;          /* arrivals + completions processed */

    /* trace columns + per-request outputs (session-owned arrays) */
    double *tr_arrival;  /* [n_req] */
    double *tr_cycles;
    double *tr_memory;
    double *out_start;   /* [n_req] service start times */
    double *out_finish;  /* [n_req] completion times */
    double *decision_log;/* [2 * n_req] requested hz, one per decide */
    i64 n_req;
    i64 next_arrival;    /* index of the next unadmitted trace request */
    i64 decision_count;

    /* FIFO of waiting request ids (in-service excluded) */
    i64 *rid_ring;       /* [rq_mask + 1] */
    i64 rq_mask;
    i64 rq_head;
    i64 rq_len;

    /* in-service request */
    i64 has_current;
    i64 cur_rid;
    double cur_C;        /* compute_cycles */
    double cur_M;        /* memory_time_s */
    double cur_progress;

    /* pending completion event */
    i64 completion_valid;
    double completion_time;

    /* DVFS domain (repro/sim/dvfs.py state machine) */
    double cur_hz;
    i64 pending_valid;
    double pending_target;
    double pending_apply_at;
    i64 latched_valid;
    double latched_target;
    i64 transitions;
    i64 record_history;
    double *hist_buf;    /* [2 * hist_cap] (time, freq) pairs */
    i64 hist_cap;
    i64 hist_count;
    double unacct[8];    /* <=4 applied-but-unconsumed (time, freq) pairs */
    i64 unacct_n;

    /* segment log rows (3 doubles per closed segment), written only
     * when log_segments is set */
    double *seg_buf;     /* [3 * seg_cap] start, end, power */
    i64 seg_cap;
    i64 seg_count;
    double seg_start;    /* open segment */
    double seg_code;
    double seg_freq;
    double seg_mem_frac;

    /* listener-phase bookkeeping (refresh guard, trimmer timing) */
    i64 completed;             /* completions this span */
    i64 observed_total;        /* profiler.total_observed */
    i64 profiler_min_samples;
    double refresh_period;
    double last_table_update;
    i64 samples_at_last_update;
    i64 trimmer_on;
    double trimmer_period;
    double trimmer_last_adjust;

    /* served compute cycles, interference penalty included */
    double *out_cycles;  /* [n_req] (session-owned, never a trace column) */

    /* colocated batch work: a BatchTask soaks up idle time, and a
     * MicroarchInterference charges the first LC request after it
     * (repro/coloc/batch.py, interference.py); batch_on = 0 otherwise */
    i64 batch_on;
    double batch_hz;             /* BatchTask.preferred_frequency */
    double batch_cpi;            /* BatchAppProfile.cpi_core */
    double batch_mem_s;          /* mem_ns_per_instr * 1e-9, from Python */
    double batch_instr;          /* BatchTask.instructions */
    double batch_time;           /* BatchTask.run_time_s */
    i64 batch_interval_valid;    /* Core._batch_interval_start is not None */
    double batch_interval_start;
    double pen_max;              /* MicroarchInterference.max_penalty_cycles */
    double pen_tau;              /* MicroarchInterference.tau_s */
    double pen_total;            /* .total_penalty_cycles */
    i64 pen_count;               /* .penalized_requests */

    /* demand profiler window (DemandProfiler): stream 0 is the served
     * cycles, stream 1 the memory time; both rings share head/len */
    i64 prof_window;             /* DemandProfiler.window */
    i64 prof_buckets;            /* DemandProfiler.num_buckets */
    double *prof_ring;           /* [2 * prof_window] */
    i64 prof_head;               /* oldest sample's slot */
    i64 prof_len;
    double prof_max[2];          /* _SlidingHistogram.max_value */
    i64 prof_max_count[2];       /* copies of the maximum in the window */
    double prof_width[2];        /* bucket width of the counts */
    i64 prof_rebin[2];           /* counts stale: recount at next snapshot */
    i64 prof_valid[2];           /* out: 0 when the maximum is <= 0 */
    i64 *prof_counts;            /* [2 * prof_buckets] bucket counts */
    double *prof_pmf;            /* [2 * prof_buckets] out at RK_SURFACE */

    /* PI trimmer (LatencyTargetTrimmer + RollingTailEstimator); its
     * window is the completed rids [tr_lo, completed) */
    double tr_bound;
    double tr_window_s;
    double tr_pct;
    double tr_kp;
    double tr_ki;
    double tr_min_scale;
    double tr_max_scale;
    i64 tr_min_samples;
    double tr_integral;
    i64 tr_lo;
    double *tr_scratch;          /* [n_req] percentile working copy */

    /* energy meter (EnergyMeter.record), folded per closed segment */
    double *m_fl;                /* [2 * nsteps] (dynamic, leakage) pairs */
    double m_sleep_w;
    double m_stall;              /* CorePowerModel.stall_activity */
    double m_energy;
    double m_total_time;
    double m_busy_energy;
    double m_busy_time;
    double m_batch_energy;
    double m_batch_time;
    double m_idle_energy;
    double *m_res;               /* [2 * nsteps] all-state, busy residency */
    i64 *m_rank;                 /* [2 * nsteps] first-seen rank + 1, 0 unseen */
    i64 m_seen[2];               /* keys seen per residency map */
    i64 log_segments;            /* write segment log rows */

    /* LC frequency policy */
    i64 lc_policy;               /* LC_EQ2 / LC_FIXED / LC_NONE */
    double lc_hz;                /* LC_FIXED's frequency */

    /* Simulator sequence numbers (the tie-break after time and
     * priority), stamped only when rk_chip steps the core */
    i64 *seq_next;               /* the chip's shared counter; NULL alone */
    i64 arr_seq;                 /* the pending arrival's */
    i64 comp_seq;                /* the pending completion's */

    /* tail-table row growth (TailTable._grow_row, see tt_grow): table
     * 0 is the bound cycles table, 1 the memory table; every buffer is
     * session-owned, sized once for the largest table the profiler can
     * produce (prof_buckets buckets, tt_max_explicit columns) */
    double *tt_base_c;           /* [prof_buckets] the base pmf (tt_len[0]) */
    double *tt_base_m;           /* [prof_buckets] (tt_len[1]) */
    i64 tt_len[2];               /* base pmf lengths */
    double tt_width[2];          /* base bucket widths */
    double tt_eps_q[2];          /* quantile - 1e-12, set once per run */
    i64 tt_max_explicit;         /* explicit columns per row */
    i64 tt_fft_max;              /* FFT size capacity (>= every column's) */
    double *tt_tw;               /* [tt_fft_max + 2] twiddles (tt_twiddles) */
    i64 tt_tw_n;                 /* the size tt_tw holds; 0 before use */
    double *tt_scratch;          /* [tt_fft_max + 2] one column's work */
    double *tt_pow_c;            /* column i's base-transform power at */
    double *tt_pow_m;            /*   tt_pow_offset(len, i) */
    i64 tt_npow[2];              /* powers built: columns 1..tt_npow */
    double *tt_btr_c;            /* [tt_fft_max + 2] the base's transform */
    double *tt_btr_m;
    i64 tt_bsize[2];             /* its FFT size; 0: none */
    double *tt_rtr_c;            /* [nrows * (tt_fft_max + 2)] each row's */
    double *tt_rtr_m;            /*   conditioned pmf's transform */
    i64 *tt_rsize_c;             /* [nrows] its FFT size; 0: none */
    i64 *tt_rsize_m;

    /* table refresh: at RK_SURFACE C leaves the demand snapshot -- each
     * window's pmf (prof_pmf, or a point mass where prof_valid is 0)
     * and its table's row bounds -- and rk_bind binds it as the pair */
    double *snap_bounds;         /* [2 * nrows] out at RK_SURFACE */
    double prof_point_width[2];  /* a point-mass snapshot's bucket width */
} rk_state;

i64 rk_state_size(void) { return (i64)sizeof(rk_state); }

i64 rk_abi_version(void) { return 7; }

/* ------------------------------------------------------------------ */
/* bisect re-implementations (exact Python semantics on doubles)      */
/* ------------------------------------------------------------------ */
static i64 rk_bisect_left(const double *a, i64 n, double x) {
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static i64 rk_bisect_right(const double *a, i64 n, double x) {
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (x < a[mid]) hi = mid; else lo = mid + 1;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* queue rings                                                        */
/* ------------------------------------------------------------------ */
static double ring_get(const rk_state *s, i64 i) {
    return s->arr_ring[(s->arr_head + i) & s->arr_mask];
}

static void ring_push(rk_state *s, double t) {
    s->arr_ring[(s->arr_head + s->arr_len) & s->arr_mask] = t;
    s->arr_len++;
}

static void ring_pop(rk_state *s) {
    s->arr_head = (s->arr_head + 1) & s->arr_mask;
    s->arr_len--;
}

static void rq_push(rk_state *s, i64 rid) {
    s->rid_ring[(s->rq_head + s->rq_len) & s->rq_mask] = rid;
    s->rq_len++;
}

static i64 rq_pop(rk_state *s) {
    i64 rid = s->rid_ring[s->rq_head];
    s->rq_head = (s->rq_head + 1) & s->rq_mask;
    s->rq_len--;
    return rid;
}

/* ------------------------------------------------------------------ */
/* segment accounting + DVFS state machine                            */
/* ------------------------------------------------------------------ */

/* One residency map's `res[f] += duration`; a first-seen key takes the
 * next rank, so the export keeps the dict's insertion order. */
static void res_add(rk_state *s, i64 map, i64 idx, double duration) {
    i64 slot = map * s->nsteps + idx;
    if (!s->m_rank[slot])
        s->m_rank[slot] = ++s->m_seen[map];
    s->m_res[slot] += duration;
}

/* EnergyMeter.record for one closed segment (duration > 0), plus its
 * segment-log row (power = energy / duration, as Core.flush_accounting
 * derives it).  Every segment frequency is a grid step. */
static void seg_close(rk_state *s, double start, double end,
                      double duration, double code, double freq,
                      double mem_frac) {
    i64 idx = rk_bisect_left(s->grid, s->nsteps, freq);
    double power;
    if (code == SEG_IDLE)
        power = s->m_sleep_w;
    else
        power = s->m_fl[2 * idx] * ((1.0 - mem_frac) + s->m_stall * mem_frac)
                + s->m_fl[2 * idx + 1];
    double energy = power * duration;
    s->m_energy += energy;
    s->m_total_time += duration;
    res_add(s, 0, idx, duration);
    if (code == SEG_BUSY) {
        s->m_busy_energy += energy;
        s->m_busy_time += duration;
        res_add(s, 1, idx, duration);
    } else if (code == SEG_BATCH) {
        s->m_batch_energy += energy;
        s->m_batch_time += duration;
    } else {
        s->m_idle_energy += energy;
    }
    if (s->log_segments) {
        double *row = s->seg_buf + 3 * s->seg_count;
        row[0] = start;
        row[1] = end;
        row[2] = energy / duration;
        s->seg_count++;
    }
}

/* BatchAppProfile.mem_stall_frac(freq) */
static double batch_mem_frac(const rk_state *s, double freq) {
    return s->batch_mem_s / (s->batch_cpi / freq + s->batch_mem_s);
}

/* BatchTask.run(duration, freq): duration * throughput(freq) */
static void batch_run(rk_state *s, double duration, double freq) {
    double throughput = 1.0 / (s->batch_cpi / freq + s->batch_mem_s);
    s->batch_instr += duration * throughput;
    s->batch_time += duration;
}

/* Request.advance(duration, freq) */
static void advance_current(rk_state *s, double duration, double freq) {
    double total = s->cur_C / freq + s->cur_M;
    if (total <= 0.0) { s->cur_progress = 1.0; return; }
    double p = s->cur_progress + duration / total;
    s->cur_progress = p > 1.0 ? 1.0 : p;
}

/* DvfsDomain._apply */
static void dvfs_apply(rk_state *s, double target, double at) {
    if (target == s->cur_hz) return;
    s->cur_hz = target;
    s->transitions++;
    if (s->record_history && s->hist_count < s->hist_cap) {
        s->hist_buf[2 * s->hist_count] = at;
        s->hist_buf[2 * s->hist_count + 1] = target;
        s->hist_count++;
    }
    if (s->unacct_n < 4) {
        s->unacct[2 * s->unacct_n] = at;
        s->unacct[2 * s->unacct_n + 1] = target;
        s->unacct_n++;
    }
}

/* DvfsDomain._sync */
static void dvfs_sync(rk_state *s) {
    while (s->pending_valid && s->now >= s->pending_apply_at) {
        double target = s->pending_target;
        double applied_at = s->pending_apply_at;
        s->pending_valid = 0;
        dvfs_apply(s, target, applied_at);
        if (s->latched_valid) {
            double nxt = s->latched_target;
            s->latched_valid = 0;
            if (nxt != s->cur_hz) {
                s->pending_valid = 1;
                s->pending_target = nxt;
                s->pending_apply_at = applied_at + s->trans_latency;
            }
        }
    }
}

/* Core._consume_boundary */
static void consume_boundary(rk_state *s, double at, double newf) {
    double duration = at - s->seg_start;
    if (duration > 0.0) {
        seg_close(s, s->seg_start, at, duration, s->seg_code, s->seg_freq,
                  s->seg_mem_frac);
        if (s->seg_code == SEG_BUSY && s->has_current)
            advance_current(s, duration, s->seg_freq);
        else if (s->seg_code == SEG_BATCH)
            batch_run(s, duration, s->seg_freq);
    }
    s->seg_start = at;
    s->seg_freq = newf;
    if (s->seg_code == SEG_BUSY) {
        double total = s->cur_C / newf + s->cur_M;
        s->seg_mem_frac = total > 0.0 ? s->cur_M / total : 0.0;
    } else if (s->seg_code == SEG_BATCH) {
        s->seg_mem_frac = batch_mem_frac(s, newf);
    } else {
        s->seg_mem_frac = 0.0;
    }
}

/* Core._sync_accounting */
static void sync_accounting(rk_state *s) {
    if (s->pending_valid && s->now >= s->pending_apply_at)
        dvfs_sync(s);
    for (i64 i = 0; i < s->unacct_n; i++)
        consume_boundary(s, s->unacct[2 * i], s->unacct[2 * i + 1]);
    s->unacct_n = 0;
}

/* Core._close_segment (the buffer-flush threshold is enforced by the
 * span loop's per-event headroom check instead). */
static void close_segment(rk_state *s) {
    if (s->unacct_n || (s->pending_valid && s->now >= s->pending_apply_at))
        sync_accounting(s);
    double duration = s->now - s->seg_start;
    if (duration > 0.0) {
        seg_close(s, s->seg_start, s->now, duration, s->seg_code,
                  s->seg_freq, s->seg_mem_frac);
        if (s->seg_code == SEG_BUSY && s->has_current)
            advance_current(s, duration, s->seg_freq);
        else if (s->seg_code == SEG_BATCH)
            batch_run(s, duration, s->seg_freq);
    }
    s->seg_start = s->now;
}

/* Core._open_segment (callers synced at this timestamp already) */
static void open_segment(rk_state *s) {
    s->seg_start = s->now;
    double freq = s->cur_hz;
    if (s->has_current) {
        s->seg_code = SEG_BUSY;
        double total = s->cur_C / freq + s->cur_M;
        s->seg_mem_frac = total > 0.0 ? s->cur_M / total : 0.0;
    } else if (s->batch_on) {
        s->seg_code = SEG_BATCH;
        s->seg_mem_frac = batch_mem_frac(s, freq);
    } else {
        s->seg_code = SEG_IDLE;
        s->seg_mem_frac = 0.0;
    }
    s->seg_freq = freq;
}

/* Core._schedule_completion: walk the (<=2-entry) transition plan. */
static void schedule_completion(rk_state *s) {
    double progress = s->cur_progress;
    double prev = s->seg_start;
    double total = s->cur_C / s->cur_hz + s->cur_M;
    double finish = prev + (1.0 - progress) * total;
    if (s->pending_valid) {
        double apply_at = s->pending_apply_at;
        if (finish >= apply_at) {
            double p = progress + (apply_at - prev) / total;
            progress = p > 1.0 ? 1.0 : p;
            total = s->cur_C / s->pending_target + s->cur_M;
            finish = apply_at + (1.0 - progress) * total;
            if (s->latched_valid && s->latched_target != s->pending_target) {
                double chained_at = apply_at + s->trans_latency;
                if (finish >= chained_at) {
                    p = progress + (chained_at - apply_at) / total;
                    progress = p > 1.0 ? 1.0 : p;
                    total = s->cur_C / s->latched_target + s->cur_M;
                    finish = chained_at + (1.0 - progress) * total;
                }
            }
        }
    }
    /* Simulator.schedule_entry clamps to the current clock. */
    s->completion_time = finish > s->now ? finish : s->now;
    s->completion_valid = 1;
    if (s->seq_next)
        s->comp_seq = (*s->seq_next)++;
}

/* DvfsDomain.request + Core._on_retarget (grid membership is
 * guaranteed: every requested value is grid[idx]). */
static void dvfs_request(rk_state *s, double target) {
    if (!s->pending_valid) {
        if (target == s->cur_hz) return;
    } else {
        dvfs_sync(s);
    }
    double eff = s->latched_valid ? s->latched_target
               : (s->pending_valid ? s->pending_target : s->cur_hz);
    if (target == eff) return;
    if (s->pending_valid) {
        s->latched_valid = 1;
        s->latched_target = target;
    } else if (s->trans_latency <= 0.0) {
        dvfs_apply(s, target, s->now);
    } else {
        s->pending_valid = 1;
        s->pending_target = target;
        s->pending_apply_at = s->now + s->trans_latency;
    }
    /* on_retarget */
    if (s->unacct_n || (s->pending_valid && s->now >= s->pending_apply_at))
        sync_accounting(s);
    if (s->has_current)
        schedule_completion(s);
}

/* Core.current_request_elapsed */
static void compute_elapsed(rk_state *s, double *ec, double *em) {
    if (!s->has_current) { *ec = 0.0; *em = 0.0; return; }
    if (s->unacct_n || (s->pending_valid && s->now >= s->pending_apply_at))
        sync_accounting(s);
    double progress = s->cur_progress;
    if (s->seg_code == SEG_BUSY) {
        double total = s->cur_C / s->seg_freq + s->cur_M;
        if (total > 0.0) {
            double extra = (s->now - s->seg_start) / total;
            double p = progress + extra;
            progress = p > 1.0 ? 1.0 : p;
        }
    }
    *ec = progress * s->cur_C;
    *em = progress * s->cur_M;
}

/* ------------------------------------------------------------------ */
/* tail-table row growth (repro/core/tail_tables.py, _grow_row)       */
/* ------------------------------------------------------------------ */
/* Cell (r, i) of a tail table is an integer: the first bucket where a
 * CDF reaches the quantile, capped at the cell's support.  Column 0
 * searches the cumsum of the row's conditioned pmf for eps_q = q -
 * 1e-12; column i >= 1 searches the cumsum of irfft(rfft(cond_r) *
 * rfft(base)^i), clipped at zero, for eps_q times its last entry, at
 * the FFT size _grow_row uses.  C has its own real FFT (iterative
 * radix-2), so its CDF differs from numpy's pocketfft in the last bits;
 * the index is the same whenever both CDF entries around the crossing
 * lie farther from the threshold than the two can disagree.  tt_grow
 * accepts an index only then, and hands the cell to Python otherwise.
 *
 * The error bound.  Both CDFs approximate the same exact prefix sums.
 * For a pmf x and the power B^i of a pmf's transform (|B| <= 1), a
 * radix-2 FFT of size N with twiddles within 2u has a relative 2-norm
 * error of at most 8u log2 N per transform (Higham, Accuracy and
 * Stability of Numerical Algorithms, Thm. 24.2; u = 2^-53), and each of
 * the i - 1 complex products behind B^i adds 3u.  Through the forward
 * transforms, the power, the product and the inverse transform the
 * result's 2-norm error is at most u (8 log2 N (i + 2) + 3 i); a CDF
 * entry moves by at most sqrt(N) times that (the 1-norm), plus N u for
 * the cumsum: tt_error_bound.  Column i's index is then certain when
 * the crossing's gap exceeds 4 bounds (each CDF entry and the threshold
 * eps_q * total each within two), and tt_grow requires the gap to
 * exceed TT_MARGIN = 1e-10 and 4 bounds to stay below it (true for
 * every size up to 8192 at i <= 17: 2.1e-11 per bound there; a default
 * table's largest, N = 2048 at i = 15, has 8.0e-12).  The largest
 * |CDF_C - CDF_numpy| measured over every cell of perfbench's sweeps
 * and a paper-scale regeneration is 2.5e-14, 1/4000 of the margin
 * (docs/performance.md, Layer 2).  The cells inside the margin are
 * whole-count ties: a window of N samples puts a CDF entry at exactly
 * q when q N is an integer, about 1e-12 above eps_q. */
#define TT_MARGIN 1e-10
#define TT_EPS_MASS 1e-12      /* histogram.py _EPS_MASS */
#define TT_U 1.1102230246251565e-16
#define TT_TWO_PI 6.283185307179586

static double tt_error_bound(i64 n, i64 i) {
    double lg = 0.0;
    for (i64 m = n; m > 1; m >>= 1)
        lg += 1.0;
    return sqrt((double)n) * TT_U * (8.0 * lg * (double)(i + 2)
                                     + 3.0 * (double)i)
        + (double)n * TT_U;
}

/* _grow_row's FFT size of column i: the smallest power of two covering
 * need = len + i * (len - 1) buckets, the widest row's support. */
static i64 tt_col_size(i64 len, i64 i) {
    i64 need = len + i * (len - 1);
    i64 size = 1;
    while (size < need)
        size <<= 1;
    return size;
}

/* Offset of column i's power in a table's power buffer: columns 1..i-1
 * before it, each a half spectrum of size / 2 + 1 complex values. */
static i64 tt_pow_offset(i64 len, i64 i) {
    i64 off = 0;
    for (i64 j = 1; j < i; j++)
        off += tt_col_size(len, j) + 2;
    return off;
}

/* cos and sin of 2 pi k / n for 0 <= k <= n / 4 (n a multiple of 4),
 * from the nearer end of the quarter, so that 0 and 1 come out exact. */
static void tt_unit_root(i64 k, i64 n, double *c, double *sn) {
    if (8 * k <= n) {
        double a = TT_TWO_PI * (double)k / (double)n;
        *c = cos(a);
        *sn = sin(a);
    } else {
        double a = TT_TWO_PI * (double)(n / 4 - k) / (double)n;
        *c = sin(a);
        *sn = cos(a);
    }
}

/* tw[k] = exp(-2 pi i k / n) for k = 0..n/2, interleaved (re, im). */
static void tt_twiddles(double *tw, i64 n) {
    tw[0] = 1.0;
    tw[1] = 0.0;
    if (n < 4) {
        if (n == 2) {
            tw[2] = -1.0;
            tw[3] = 0.0;
        }
        return;
    }
    for (i64 k = 1; k <= n / 2; k++) {
        double c, sn;
        if (k <= n / 4) {
            tt_unit_root(k, n, &c, &sn);
        } else {
            /* angle pi/2 + phi: cos = -sin(phi), sin = cos(phi) */
            double cp, sp;
            tt_unit_root(k - n / 4, n, &cp, &sp);
            c = -sp;
            sn = cp;
        }
        tw[2 * k] = c;
        tw[2 * k + 1] = -sn;
    }
}

/* In-place iterative radix-2 complex FFT of h points (a power of two)
 * on interleaved pairs a[0..2h), unscaled: exp(-2 pi i / h) kernel, or
 * its conjugate when inverse.  tw holds tw_n's twiddles. */
static void tt_cfft(double *a, i64 h, const double *tw, i64 tw_n,
                    int inverse) {
    for (i64 i = 1, j = 0; i < h; i++) {
        i64 bit = h >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j) {
            double t = a[2 * i];
            a[2 * i] = a[2 * j];
            a[2 * j] = t;
            t = a[2 * i + 1];
            a[2 * i + 1] = a[2 * j + 1];
            a[2 * j + 1] = t;
        }
    }
    for (i64 i = 0; i + 1 < h; i += 2) {
        double *u = a + 2 * i;
        double r = u[2], m = u[3];
        u[2] = u[0] - r;
        u[3] = u[1] - m;
        u[0] += r;
        u[1] += m;
    }
    double sign = inverse ? -1.0 : 1.0;
    for (i64 len = 4; len <= h; len <<= 1) {
        i64 half = len >> 1;
        i64 step = 2 * (tw_n / len);
        for (i64 i = 0; i < h; i += len) {
            double *u = a + 2 * i;
            double *v = u + 2 * half;
            const double *w = tw;
            for (i64 j = 0; j < half; j++, w += step) {
                double wr = w[0], wi = sign * w[1];
                double vr = v[2 * j], vi = v[2 * j + 1];
                double tr = vr * wr - vi * wi;
                double ti = vr * wi + vi * wr;
                v[2 * j] = u[2 * j] - tr;
                v[2 * j + 1] = u[2 * j + 1] - ti;
                u[2 * j] += tr;
                u[2 * j + 1] += ti;
            }
        }
    }
}

/* np.fft.rfft of x[0..n) in place: the half spectrum X[0..n/2] lands
 * in x[0..n+2) as interleaved pairs (n a power of two).  The even and
 * odd samples are one complex signal of n/2 points; its transform Z
 * splits into theirs, E_k = (Z_k + conj Z_{h-k}) / 2 and O_k = (Z_k -
 * conj Z_{h-k}) / 2i, and X_k = E_k + exp(-2 pi i k / n) O_k. */
static void tt_rfft(double *x, i64 n, const double *tw, i64 tw_n) {
    if (n == 1) {
        x[1] = 0.0;
        return;
    }
    i64 h = n / 2;
    tt_cfft(x, h, tw, tw_n, 0);
    double zr = x[0], zi = x[1];
    x[0] = zr + zi;
    x[1] = 0.0;
    x[2 * h] = zr - zi;
    x[2 * h + 1] = 0.0;
    i64 stride = 2 * (tw_n / n);
    for (i64 k = 1; k < h - k; k++) {
        i64 m = h - k;
        double ar = x[2 * k], ai = x[2 * k + 1];
        double br = x[2 * m], bi = x[2 * m + 1];
        double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
        double or_ = 0.5 * (ai + bi), oi = -0.5 * (ar - br);
        double wr = tw[k * stride], wi = tw[k * stride + 1];
        double tr = wr * or_ - wi * oi;
        double ti = wr * oi + wi * or_;
        x[2 * k] = er + tr;
        x[2 * k + 1] = ei + ti;
        x[2 * m] = er - tr;
        x[2 * m + 1] = ti - ei;
    }
    if (h >= 2)
        x[h + 1] = -x[h + 1];   /* k = h/2: X = conj Z */
}

/* np.fft.irfft(X, n) in place, times n (the caller scales): the
 * inverse of tt_rfft's split, then an inverse transform of n/2 points.
 * Like numpy, it ignores the imaginary parts of X[0] and X[n/2]. */
static void tt_irfft_unscaled(double *x, i64 n, const double *tw,
                              i64 tw_n) {
    if (n == 1)
        return;
    i64 h = n / 2;
    double x0 = x[0], xh = x[2 * h];
    x[0] = x0 + xh;
    x[1] = x0 - xh;
    i64 stride = 2 * (tw_n / n);
    for (i64 k = 1; k < h - k; k++) {
        i64 m = h - k;
        double ar = x[2 * k], ai = x[2 * k + 1];
        double br = x[2 * m], bi = x[2 * m + 1];
        double er = ar + br, ei = ai - bi;
        double dr = ar - br, di = ai + bi;
        double wr = tw[k * stride], wi = tw[k * stride + 1];
        double or_ = dr * wr + di * wi;
        double oi = di * wr - dr * wi;
        x[2 * k] = er - oi;
        x[2 * k + 1] = ei + or_;
        x[2 * m] = er + oi;
        x[2 * m + 1] = or_ - ei;
    }
    if (h >= 2) {
        x[h] = 2.0 * x[h];          /* k = h/2: Z = 2 conj X */
        x[h + 1] = -2.0 * x[h + 1];
    }
    tt_cfft(x, h, tw, tw_n, 1);
}

/* First index of the non-decreasing a[0..n) with a[k] >= x, else n
 * (np.searchsorted, side "left"). */
static i64 tt_search(const double *a, i64 n, double x) {
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* The capped index of the crossing of cdf[0..n) at thr, or -1 when a
 * CDF entry beside it lies within `margin` of thr (the index numpy
 * returns is then not certain). */
static i64 tt_certified(const double *cdf, i64 n, double thr, i64 cap,
                        double margin) {
    i64 idx = tt_search(cdf, n, thr);
    i64 k = idx < cap ? idx : cap;
    if (k > 0 && !(thr - cdf[k - 1] > margin))
        return -1;
    if (idx == k && !(cdf[k] - thr > margin))
        return -1;
    return k;
}

/* Table t's fields and row `row`'s slices, picked once per call. */
typedef struct {
    const double *base;
    i64 len;
    double width;
    double eps_q;
    double bound;
    double *pow;
    double *btr;
    double *rtr;
    i64 *rsize;
    double *cells;
    i64 *rowlen;
} tt_view;

static tt_view tt_table(rk_state *s, i64 t, i64 row) {
    tt_view v;
    i64 stride = s->tt_fft_max + 2;
    v.base = t ? s->tt_base_m : s->tt_base_c;
    v.len = s->tt_len[t];
    v.width = s->tt_width[t];
    v.eps_q = s->tt_eps_q[t];
    v.bound = (t ? s->mbounds : s->cbounds)[row];
    v.pow = t ? s->tt_pow_m : s->tt_pow_c;
    v.btr = t ? s->tt_btr_m : s->tt_btr_c;
    v.rtr = (t ? s->tt_rtr_m : s->tt_rtr_c) + row * stride;
    v.rsize = (t ? s->tt_rsize_m : s->tt_rsize_c) + row;
    v.cells = (t ? s->rows_m : s->rows_c) + row * s->row_cap;
    v.rowlen = (t ? s->rowlen_m : s->rowlen_c) + row;
    return v;
}

/* Base-transform power of column p, built after column p - 1's: the
 * chain _grow_row keeps per FFT size (power p = power p-1 * base). */
static void tt_build_power(rk_state *s, i64 t, const tt_view *v, i64 p) {
    i64 n = tt_col_size(v->len, p);
    i64 bins = n / 2 + 1;
    if (s->tt_bsize[t] != n) {
        for (i64 j = 0; j < n; j++)
            v->btr[j] = j < v->len ? v->base[j] : 0.0;
        tt_rfft(v->btr, n, s->tt_tw, s->tt_tw_n);
        s->tt_bsize[t] = n;
    }
    double *out = v->pow + tt_pow_offset(v->len, p);
    const double *b = v->btr;
    i64 chain;
    if (p > 1 && tt_col_size(v->len, p - 1) == n) {
        const double *prev = v->pow + tt_pow_offset(v->len, p - 1);
        for (i64 k = 0; k < 2 * bins; k++)
            out[k] = prev[k];
        chain = 1;
    } else {
        for (i64 k = 0; k < 2 * bins; k++)
            out[k] = b[k];
        chain = p - 1;
    }
    for (i64 c = 0; c < chain; c++) {
        for (i64 k = 0; k < bins; k++) {
            double ar = out[2 * k], ai = out[2 * k + 1];
            double br = b[2 * k], bi = b[2 * k + 1];
            out[2 * k] = ar * br - ai * bi;
            out[2 * k + 1] = ar * bi + ai * br;
        }
    }
    s->tt_npow[t] = p;
}

/* Build table t's row `row` in C to min(n, max_explicit) explicit
 * cells, as TailTable._grow_row would.  Returns 0 when the row reaches
 * n, else the length Python must build it to: i + 1 for a cell i whose
 * index C cannot certify, or n for the CLT positions past
 * max_explicit (whose moments are numpy dots). */
static i64 tt_grow(rk_state *s, i64 t, i64 row, i64 n) {
    i64 max_explicit = s->tt_max_explicit;
    i64 want = n < max_explicit ? n : max_explicit;
    tt_view v = tt_table(s, t, row);
    i64 have = *v.rowlen;
    if (have < want) {
        /* Histogram.condition_on_elapsed on the row's lower bound: the
         * shift is Python's int(elapsed / width), not the bound's
         * bucket index (the two differ when the bound's division
         * rounds down). */
        i64 len = v.len;
        i64 shift = (i64)(v.bound / v.width);
        const double *src = v.base;
        double total = 1.0;       /* shift 0: the base itself */
        i64 clen = len;
        int point = 0;
        if (shift > 0) {
            total = 0.0;
            for (i64 j = shift; j < len; j++)
                total += v.base[j];
            /* A total this close to the exhaustion cut could fall on
             * either side of numpy's pairwise sum. */
            if (fabs(total - TT_EPS_MASS) <= 1e-6 * TT_EPS_MASS)
                return n;
            if (shift >= len || total <= TT_EPS_MASS) {
                point = 1;
                clen = 1;
            } else {
                src = v.base + shift;
                clen = len - shift;
            }
        }
        double *x = s->tt_scratch;
        if (have == 0) {
            /* Histogram.quantile of the conditioned row */
            double acc = 0.0;
            for (i64 j = 0; j < clen; j++) {
                acc += point ? 1.0 : shift > 0 ? src[j] / total : src[j];
                x[j] = acc;
            }
            i64 k = tt_certified(x, clen, v.eps_q, clen - 1, TT_MARGIN);
            if (k < 0)
                return 1;
            v.cells[0] = (double)(k + 1) * v.width;
            *v.rowlen = have = 1;
        }
        if (s->tt_tw_n != s->tt_fft_max) {
            tt_twiddles(s->tt_tw, s->tt_fft_max);
            s->tt_tw_n = s->tt_fft_max;
        }
        for (i64 i = have; i < want; i++) {
            i64 size = tt_col_size(len, i);
            double bound = tt_error_bound(size, i);
            if (!(4.0 * bound < TT_MARGIN))
                return i + 1;
            while (s->tt_npow[t] < i)
                tt_build_power(s, t, &v, s->tt_npow[t] + 1);
            i64 bins = size / 2 + 1;
            if (*v.rsize != size) {
                if (shift == 0 && s->tt_bsize[t] == size) {
                    /* Row 0 conditions on no elapsed work: its transform
                     * is the base's at this size (same input, same code) */
                    for (i64 k = 0; k < 2 * bins; k++)
                        v.rtr[k] = v.btr[k];
                } else {
                    for (i64 j = 0; j < size; j++)
                        v.rtr[j] = j >= clen ? 0.0
                            : point ? 1.0 : shift > 0 ? src[j] / total
                            : src[j];
                    tt_rfft(v.rtr, size, s->tt_tw, s->tt_tw_n);
                }
                *v.rsize = size;
            }
            const double *p = v.pow + tt_pow_offset(len, i);
            for (i64 k = 0; k < bins; k++) {
                double ar = v.rtr[2 * k], ai = v.rtr[2 * k + 1];
                double br = p[2 * k], bi = p[2 * k + 1];
                x[2 * k] = ar * br - ai * bi;
                x[2 * k + 1] = ar * bi + ai * br;
            }
            tt_irfft_unscaled(x, size, s->tt_tw, s->tt_tw_n);
            /* np.maximum(pmf, 0.0) and cumsum, scaled by 1 / size */
            double inv = 1.0 / (double)size;
            double acc = 0.0;
            for (i64 j = 0; j < size; j++) {
                double y = x[j] * inv;
                if (y > 0.0)
                    acc += y;
                x[j] = acc;
            }
            i64 support = clen + i * (len - 1);
            i64 k = tt_certified(x, size, v.eps_q * acc, support - 1,
                                 TT_MARGIN);
            if (k < 0)
                return i + 1;
            v.cells[i] = (double)(k + 1) * v.width;
            *v.rowlen = i + 1;
        }
    }
    return n > *v.rowlen ? n : 0;
}

/* tt_grow for one table row, for the property test against the eager
 * build in tests/core/test_lazy_tail_tables.py. */
i64 rk_grow_row(rk_state *s, i64 t, i64 row, i64 n) {
    return tt_grow(s, t, row, n);
}

/* ------------------------------------------------------------------ */
/* table refresh: the snapshot's row bounds and the bind              */
/* ------------------------------------------------------------------ */
/* TailTable.__init__'s row bounds of the base pmf[0..len) with bucket
 * width `width`: row 0 starts at 0.0, and row r >= 1 at the upper edge
 * of the first bucket whose CDF -- np.cumsum's sequential sum -- reaches
 * r / nrows - 1e-12 (np.searchsorted, side "left"), capped at the last
 * bucket.  The thresholds rise with r and the CDF never falls, so one
 * walk up the CDF meets every crossing a binary search finds. */
void rk_row_bounds(const double *pmf, i64 len, double width, i64 nrows,
                   double *out) {
    out[0] = 0.0;
    i64 idx = 0;
    double cdf = pmf[0];
    for (i64 r = 1; r < nrows; r++) {
        double thr = (double)r / (double)nrows - 1e-12;
        while (idx < len && cdf < thr) {
            idx++;
            if (idx < len)
                cdf += pmf[idx];
        }
        i64 k = idx < len - 1 ? idx : len - 1;
        out[r] = (double)(k + 1) * width;
    }
}

/* Stream k's snapshot table's row bounds, into snap_bounds (a point
 * mass is the one-bucket pmf DemandProfiler.snapshot gives). */
static void snapshot_bounds(rk_state *s, i64 k) {
    static const double point = 1.0;
    double *out = s->snap_bounds + k * s->nrows;
    if (s->prof_valid[k])
        rk_row_bounds(s->prof_pmf + k * s->prof_buckets, s->prof_buckets,
                      s->prof_width[k], s->nrows, out);
    else
        rk_row_bounds(&point, 1, s->prof_point_width[k], s->nrows, out);
}

/* Bind the snapshot the last RK_SURFACE left as the table pair, after a
 * refresh resolved a pair other than the bound one.  That pair is a pure
 * function of the snapshot (a cache hit's fingerprint is these pmf bytes
 * and widths), so its bases and row bounds are these, bit for bit.
 * Every row starts empty and every transform and power is rebuilt on
 * first use; the session then copies a hit's built rows in. */
void rk_bind(rk_state *s) {
    for (i64 t = 0; t < 2; t++) {
        double *base = t ? s->tt_base_m : s->tt_base_c;
        if (s->prof_valid[t]) {
            const double *pmf = s->prof_pmf + t * s->prof_buckets;
            for (i64 j = 0; j < s->prof_buckets; j++)
                base[j] = pmf[j];
            s->tt_len[t] = s->prof_buckets;
            s->tt_width[t] = s->prof_width[t];
        } else {
            base[0] = 1.0;
            s->tt_len[t] = 1;
            s->tt_width[t] = s->prof_point_width[t];
        }
        const double *snap = s->snap_bounds + t * s->nrows;
        double *bounds = t ? s->mbounds : s->cbounds;
        i64 *rowlen = t ? s->rowlen_m : s->rowlen_c;
        i64 *rsize = t ? s->tt_rsize_m : s->tt_rsize_c;
        for (i64 r = 0; r < s->nrows; r++) {
            bounds[r] = snap[r];
            rowlen[r] = 0;
            rsize[r] = 0;
        }
        s->tt_npow[t] = 0;
        s->tt_bsize[t] = 0;
    }
    s->tables_ready = 1;
    s->tables_gen++;
}

/* ------------------------------------------------------------------ */
/* decision kernel (DecisionKernel ported verbatim)                   */
/* ------------------------------------------------------------------ */
/* Both rows of the pair at least n long, as the kernel's
 * extended_row_list calls leave them: C builds the explicit cells it
 * can certify; otherwise RK_NEED_ROWS names the rows and the lengths
 * Python must build them to.  Changes nothing but the rows. */
static i64 ensure_rows(rk_state *s, i64 row_c, i64 row_m, i64 n) {
    if (s->rowlen_c[row_c] >= n && s->rowlen_m[row_m] >= n)
        return RK_OK;
    i64 need_c = s->rowlen_c[row_c] < n ? tt_grow(s, 0, row_c, n) : 0;
    i64 need_m = s->rowlen_m[row_m] < n ? tt_grow(s, 1, row_m, n) : 0;
    if (!need_c && !need_m)
        return RK_OK;
    s->need_row_c = row_c;
    s->need_row_m = row_m;
    s->need_len_c = need_c;
    s->need_len_m = need_m;
    return RK_NEED_ROWS;
}

static i64 ensure_mono(rk_state *s, i64 upto) {
    if (!s->mono_ok) return 0;
    i64 k = s->mono_len;
    if (k >= upto) return 1;
    const double *crow = s->rows_c + s->k_row_c * s->row_cap;
    const double *mrow = s->rows_m + s->k_row_m * s->row_cap;
    i64 len_c = s->rowlen_c[s->k_row_c];
    i64 len_m = s->rowlen_m[s->k_row_m];
    if (len_c < upto) upto = len_c;
    if (len_m < upto) upto = len_m;
    for (i64 j = (k > 1 ? k : 1); j < upto; j++) {
        if (crow[j] < crow[j - 1] || mrow[j] < mrow[j - 1]) {
            s->mono_ok = 0;
            return 0;
        }
    }
    s->mono_len = upto;
    return 1;
}

/* 1: served; 0: re-fold; -1: RK_NEED_ROWS (nothing changed yet). */
static i64 arrival_fast(rk_state *s, i64 n, double now, double target) {
    i64 fidx = s->k_fidx;
    const double *grid = s->grid;
    i64 last = s->nsteps - 1;
    i64 any_h = s->k_any_h;
    if (fidx < last && now > s->tau_abs)
        return 0;
    if (!any_h && fidx < s->nominal_idx && now > s->sigma_abs)
        return 0;
    i64 witness = s->k_witness;
    i64 floored = any_h && fidx == s->nominal_idx;
    const double *mrow = s->rows_m + s->k_row_m * s->row_cap;
    const double *crow = s->rows_c + s->k_row_c * s->row_cap;
    if (fidx > 0 && !floored) {
        if (witness < 0)
            return 0;
        if ((target - (now - ring_get(s, witness))) - mrow[witness] <= 0.0)
            return 0;
    }
    if (fidx == last) {
        s->decided_hz = grid[last];
        s->st_fast_arr++;
        return 1;
    }
    /* The kernel extends the rows to the new position here, and only
     * here: a pinned-top arrival leaves them as they are. */
    if (ensure_rows(s, s->k_row_c, s->k_row_m, n) != RK_OK)
        return -1;
    i64 n_idx = n - 1;
    double c_i = crow[n_idx];
    double slack = (target - (now - ring_get(s, n - 1))) - mrow[n_idx];
    if (slack <= 0.0) {
        any_h = 1;
    } else {
        double guard = 1e-9 + 1e-12 * now;
        double sig = now + slack - guard;
        if (sig < s->sigma_abs) s->sigma_abs = sig;
        double p = grid[fidx] * slack;
        if (c_i <= p) {
            double tau = now + (p - c_i) * s->inv_grid[fidx] - guard;
            if (tau < s->tau_abs) s->tau_abs = tau;
        } else {
            i64 idx = rk_bisect_left(grid, s->nsteps, c_i / slack - 1e-9);
            fidx = idx < last ? idx : last;
            witness = n_idx;
            if (fidx < last) {
                p = grid[fidx] * slack;
                double tau = now + (p - c_i) * s->inv_grid[fidx] - guard;
                if (tau < s->tau_abs) s->tau_abs = tau;
            }
        }
    }
    if (any_h && fidx < s->nominal_idx) {
        fidx = s->nominal_idx;
        witness = -1;
    }
    s->k_fidx = fidx;
    s->k_witness = witness;
    s->k_any_h = any_h;
    s->decided_hz = grid[fidx];
    s->st_fast_arr++;
    return 1;
}

static i64 completion_fast(rk_state *s, i64 n, double now, double target) {
    (void)n;  /* the shifted length is validated by the caller's epoch */
    if (s->k_any_h)
        return 0;
    i64 fidx = s->k_fidx;
    const double *grid = s->grid;
    i64 last = s->nsteps - 1;
    if (fidx == 0) {
        if (now > s->tau_abs || now > s->sigma_abs)
            return 0;
        if (!ensure_mono(s, s->k_n))
            return 0;
        s->decided_hz = grid[0];
        s->k_witness = -1;
        s->st_fast_comp++;
        return 1;
    }
    i64 b = s->k_witness - 1;
    if (b < 0)
        return 0;
    if (fidx < last) {
        if (now > s->tau_abs)
            return 0;
        if (fidx < s->nominal_idx && now > s->sigma_abs)
            return 0;
        if (!ensure_mono(s, s->k_n))
            return 0;
    }
    const double *mrow = s->rows_m + s->k_row_m * s->row_cap;
    const double *crow = s->rows_c + s->k_row_c * s->row_cap;
    double slack = (target - (now - ring_get(s, b))) - mrow[b];
    if (slack <= 0.0)
        return 0;
    i64 idx = rk_bisect_left(grid, s->nsteps, crow[b] / slack - 1e-9);
    if ((idx < last ? idx : last) != fidx)
        return 0;
    s->decided_hz = grid[fidx];
    s->k_witness = b;
    s->st_fast_comp++;
    return 1;
}

static void full_fold(rk_state *s, i64 n, double now, double target,
                      i64 row_c, i64 row_m, i64 epoch) {
    /* Rows cover n (the decide grew them first), so the fold cannot
     * surface: the counter increments exactly once per completed fold. */
    s->st_cert++;
    if (row_c != s->k_row_c || row_m != s->k_row_m
            || s->tables_gen != s->k_tables_gen) {
        s->mono_ok = 1;
        s->mono_len = 0;
        s->k_row_c = row_c;
        s->k_row_m = row_m;
        s->k_tables_gen = s->tables_gen;
    }
    const double *crow = s->rows_c + row_c * s->row_cap;
    const double *mrow = s->rows_m + row_m * s->row_cap;
    const double *grid = s->grid;
    const double *inv_grid = s->inv_grid;
    i64 last = s->nsteps - 1;
    i64 fidx = 0;
    double f = grid[0];
    i64 any_h = 0;
    i64 witness = -1;
    double inv_f = inv_grid[0];
    double guard = 1e-9 + 1e-12 * now;
    double tau_abs = RK_INF;
    double sigma_abs = RK_INF;
    for (i64 i = 0; i < n; i++) {
        double c_i = crow[i];
        double m_i = mrow[i];
        double slack = (target - (now - ring_get(s, i))) - m_i;
        if (slack <= 0.0) {
            any_h = 1;
            continue;
        }
        double sig = now + slack - guard;
        if (sig < sigma_abs) sigma_abs = sig;
        double p = f * slack;
        if (c_i <= p) {
            double tau = now + (p - c_i) * inv_f - guard;
            if (tau < tau_abs) tau_abs = tau;
            continue;
        }
        i64 idx = rk_bisect_left(grid, s->nsteps, c_i / slack - 1e-9);
        witness = i;
        if (idx >= last) {
            fidx = last;
            tau_abs = RK_INF;
            sigma_abs = RK_INF;
            break;
        }
        fidx = idx;
        f = grid[fidx];
        inv_f = inv_grid[fidx];
        double tau = now + (f * slack - c_i) * inv_f - guard;
        if (tau < tau_abs) tau_abs = tau;
    }
    if (fidx < last && any_h && fidx < s->nominal_idx) {
        fidx = s->nominal_idx;
        witness = -1;
    }
    s->tau_abs = tau_abs;
    s->sigma_abs = sigma_abs;
    s->certs = 1;
    s->k_target = target;
    s->k_epoch = epoch;
    s->k_n = n;
    s->k_fidx = fidx;
    s->k_witness = witness;
    s->k_any_h = any_h;
    s->decided_hz = grid[fidx];
}

/* DecisionKernel.decide.  Restartable: RK_NEED_ROWS is returned before
 * any state (counters included) but the rows is mutated, so the session
 * fills the requested rows and rk_span simply calls again.  The rows
 * grow where the kernel's reads extend them: to n before a lean or a
 * full fold, in arrival_fast past its pinned-top exit, never in
 * completion_fast. */
static i64 rk_decide(rk_state *s) {
    i64 n = s->arr_len;
    if (n == 0) {
        s->decided_hz = s->min_hz;
        s->st_idle++;
        s->certs = 0;
        return RK_OK;
    }
    if (!s->tables_ready) {
        s->decided_hz = s->max_hz;
        s->st_warmup++;
        s->certs = 0;
        return RK_OK;
    }
    double target = s->target;
    double now = s->now;
    double elapsed_c, elapsed_m;
    compute_elapsed(s, &elapsed_c, &elapsed_m);
    i64 row_c = rk_bisect_right(s->cbounds, s->nrows, elapsed_c) - 1;
    i64 row_m = rk_bisect_right(s->mbounds, s->nrows, elapsed_m) - 1;
    const double *grid = s->grid;
    i64 last = s->nsteps - 1;

    if (n < s->cert_min_queue) {
        i64 rc = ensure_rows(s, row_c, row_m, n);
        if (rc != RK_OK)
            return rc;
        /* Lean fold.  The cached-pair bookkeeping mirrors the Python
         * refetch: the row lists are append-only, so the mono prefix
         * resets only when the pair (row indices or table identity)
         * actually changed. */
        if (row_c != s->k_row_c || row_m != s->k_row_m
                || s->tables_gen != s->k_tables_gen) {
            s->mono_ok = 1;
            s->mono_len = 0;
            s->k_row_c = row_c;
            s->k_row_m = row_m;
            s->k_tables_gen = s->tables_gen;
        }
        const double *crow = s->rows_c + row_c * s->row_cap;
        const double *mrow = s->rows_m + row_m * s->row_cap;
        s->certs = 0;
        s->st_lean++;
        if (n == 1) {
            double slack = (target - (now - ring_get(s, 0))) - mrow[0];
            i64 idx;
            if (slack <= 0.0) {
                idx = s->nominal_idx;
            } else {
                idx = rk_bisect_left(grid, s->nsteps,
                                     crow[0] / slack - 1e-9);
                if (idx > last) idx = last;
            }
            s->decided_hz = grid[idx];
            return RK_OK;
        }
        i64 fidx = 0;
        double f = grid[0];
        i64 any_h = 0;
        for (i64 i = 0; i < n; i++) {
            double slack = (target - (now - ring_get(s, i))) - mrow[i];
            if (slack <= 0.0) {
                any_h = 1;
            } else if (crow[i] > f * slack) {
                i64 idx = rk_bisect_left(grid, s->nsteps,
                                         crow[i] / slack - 1e-9);
                if (idx >= last) {
                    fidx = last;
                    break;
                }
                fidx = idx;
                f = grid[fidx];
            }
        }
        if (fidx < last && any_h && fidx < s->nominal_idx)
            fidx = s->nominal_idx;
        s->decided_hz = grid[fidx];
        return RK_OK;
    }

    i64 epoch = s->queue_epoch;
    i64 *invalidation = 0;   /* counted once the fold can run */
    if (s->certs && epoch == s->k_epoch + 1) {
        if (s->tables_gen != s->k_tables_gen) {
            invalidation = &s->st_inv_tables;
        } else if (target != s->k_target) {
            invalidation = &s->st_inv_target;
        } else if (row_c != s->k_row_c || row_m != s->k_row_m) {
            invalidation = &s->st_inv_row;
        } else if (n == s->k_n + 1) {
            i64 fast = arrival_fast(s, n, now, target);
            if (fast < 0)
                return RK_NEED_ROWS;
            if (fast) {
                s->k_epoch = epoch;
                s->k_n = n;
                return RK_OK;
            }
        } else if (n == s->k_n - 1) {
            if (completion_fast(s, n, now, target)) {
                s->k_epoch = epoch;
                s->k_n = n;
                return RK_OK;
            }
        }
    } else if (s->certs) {
        invalidation = &s->st_inv_epoch;
    }
    i64 rc = ensure_rows(s, row_c, row_m, n);
    if (rc != RK_OK)
        return rc;
    if (invalidation)
        (*invalidation)++;
    full_fold(s, n, now, target, row_c, row_m, epoch);
    return RK_OK;
}

/* ------------------------------------------------------------------ */
/* demand profiler window (repro/core/profiler.py)                    */
/* ------------------------------------------------------------------ */

/* Histogram.from_samples' bucket of x: min((int)(x / width), nb - 1). */
static i64 prof_bucket(const rk_state *s, double x, double width) {
    i64 b = (i64)(x / width);
    return b < s->prof_buckets - 1 ? b : s->prof_buckets - 1;
}

/* _SlidingHistogram._rescan_max */
static void prof_rescan(rk_state *s, i64 k) {
    const double *ring = s->prof_ring + k * s->prof_window;
    double m = -RK_INF;
    i64 count = 0;
    for (i64 i = 0; i < s->prof_len; i++) {
        double v = ring[(s->prof_head + i) % s->prof_window];
        if (v > m) {
            m = v;
            count = 1;
        } else if (v == m) {
            count++;
        }
    }
    s->prof_max[k] = m;
    s->prof_max_count[k] = count;
    s->prof_rebin[k] = 1;
}

/* _SlidingHistogram.add of `v` into slot `pos`, evicting the slot's
 * sample when the window is full.  While the width is unchanged the
 * counts follow each add and eviction; a new maximum (or the last copy
 * of the maximum leaving) changes the width and defers to a recount. */
static void prof_add(rk_state *s, i64 k, double v, i64 pos, i64 full) {
    double *ring = s->prof_ring + k * s->prof_window;
    i64 *counts = s->prof_counts + k * s->prof_buckets;
    if (full) {
        double evicted = ring[pos];
        if (evicted == s->prof_max[k])
            s->prof_max_count[k]--;
        if (!s->prof_rebin[k])
            counts[prof_bucket(s, evicted, s->prof_width[k])]--;
    }
    ring[pos] = v;
    if (v > s->prof_max[k]) {
        s->prof_max[k] = v;
        s->prof_max_count[k] = 1;
        s->prof_rebin[k] = 1;
    } else {
        if (v == s->prof_max[k])
            s->prof_max_count[k]++;
        if (!s->prof_rebin[k])
            counts[prof_bucket(s, v, s->prof_width[k])]++;
    }
    if (s->prof_max_count[k] == 0)
        prof_rescan(s, k);
}

/* DemandProfiler.observe (demands were checked non-negative up front). */
static void prof_observe(rk_state *s, double cycles, double memory) {
    i64 full = s->prof_len == s->prof_window;
    i64 pos = (s->prof_head + s->prof_len) % s->prof_window;
    prof_add(s, 0, cycles, pos, full);
    prof_add(s, 1, memory, pos, full);
    if (full)
        s->prof_head = (s->prof_head + 1) % s->prof_window;
    else
        s->prof_len++;
    s->observed_total++;
}

/* _SlidingHistogram.histogram: bring the counts up to date (a full
 * recount under from_samples' width arithmetic when stale) and write
 * the pmf Histogram.__init__ derives from them.  The counts are whole
 * numbers, so their total is exact and pmf[i] = counts[i] / total is
 * the same division. */
static void prof_snapshot(rk_state *s, i64 k) {
    if (s->prof_max[k] <= 0.0) {
        s->prof_valid[k] = 0;   /* the point-mass case */
        s->prof_rebin[k] = 1;
        return;
    }
    i64 nb = s->prof_buckets;
    i64 *counts = s->prof_counts + k * nb;
    if (s->prof_rebin[k]) {
        const double *ring = s->prof_ring + k * s->prof_window;
        double width = s->prof_max[k] / (double)nb * (1.0 + 1e-9);
        for (i64 b = 0; b < nb; b++)
            counts[b] = 0;
        for (i64 i = 0; i < s->prof_len; i++)
            counts[prof_bucket(s, ring[(s->prof_head + i) % s->prof_window],
                               width)]++;
        s->prof_width[k] = width;
        s->prof_rebin[k] = 0;
    }
    i64 total = 0;
    for (i64 b = 0; b < nb; b++)
        total += counts[b];
    double *pmf = s->prof_pmf + k * nb;
    for (i64 b = 0; b < nb; b++)
        pmf[b] = (double)counts[b] / (double)total;
    s->prof_valid[k] = 1;
}

/* ------------------------------------------------------------------ */
/* PI trimmer (repro/core/feedback.py, repro/analysis/windows.py)     */
/* ------------------------------------------------------------------ */

static void swap_d(double *a, i64 i, i64 j) {
    double t = a[i];
    a[i] = a[j];
    a[j] = t;
}

/* Quickselect: the k-th smallest of a[0..n), leaving a[i] <= a[k] for
 * i < k and a[i] >= a[k] for i > k (median-of-three pivots). */
static double select_kth(double *a, i64 n, i64 k) {
    i64 lo = 0, hi = n - 1;
    while (hi > lo + 1) {
        i64 mid = (lo + hi) >> 1;
        swap_d(a, mid, lo + 1);
        if (a[lo] > a[hi]) swap_d(a, lo, hi);
        if (a[lo + 1] > a[hi]) swap_d(a, lo + 1, hi);
        if (a[lo] > a[lo + 1]) swap_d(a, lo, lo + 1);
        i64 i = lo + 1, j = hi;
        double pivot = a[lo + 1];
        for (;;) {
            do i++; while (a[i] < pivot);
            do j--; while (a[j] > pivot);
            if (j < i) break;
            swap_d(a, i, j);
        }
        a[lo + 1] = a[j];
        a[j] = pivot;
        if (j >= k) hi = j - 1;
        if (j <= k) lo = i;
    }
    if (hi == lo + 1 && a[hi] < a[lo])
        swap_d(a, lo, hi);
    return a[k];
}

/* np.percentile(a[:n], pct), method "linear", on a working copy `a`
 * (reordered in place):  v = (n - 1) * (pct / 100), the order
 * statistics k = floor(v) and min(k + 1, n - 1), and numpy's _lerp,
 * which interpolates down from the upper neighbour when g >= 0.5.  At
 * v >= n - 1 both neighbours are the maximum, as in numpy. */
static double percentile_linear(double *a, i64 n, double pct) {
    double v = (double)(n - 1) * (pct / 100.0);
    if (v >= (double)(n - 1)) {
        double m = a[0];
        for (i64 i = 1; i < n; i++)
            if (a[i] > m) m = a[i];
        return m;
    }
    i64 k = (i64)v;             /* floor: v >= 0 */
    double g = v - (double)k;
    double lo = select_kth(a, n, k);
    double hi = a[k + 1];
    for (i64 i = k + 2; i < n; i++)
        if (a[i] < hi) hi = a[i];
    double d = hi - lo;
    if (g >= 0.5)
        return hi - d * (1.0 - g);
    return lo + d * g;
}

/* Standalone entry point of the percentile, for the property test
 * against np.percentile.  `scratch` ([n]) receives the working copy. */
double rk_percentile(i64 n, const double *values, double pct,
                     double *scratch) {
    for (i64 i = 0; i < n; i++)
        scratch[i] = values[i];
    return percentile_linear(scratch, n, pct);
}

/* LatencyTargetTrimmer.observe for the completion of `rid` at `now`:
 * RollingTailEstimator._evict (strictly older than now - window_s),
 * then, once per adjust period, _adjust's PI update on the window's
 * tail, operands in the order written there. */
static void trimmer_observe(rk_state *s, i64 rid) {
    double now = s->now;
    double cutoff = now - s->tr_window_s;
    while (s->tr_lo <= rid && s->out_finish[s->tr_lo] < cutoff)
        s->tr_lo++;
    if (!(now - s->trimmer_last_adjust >= s->trimmer_period))
        return;
    i64 n = rid + 1 - s->tr_lo;
    if (n >= s->tr_min_samples && n > 0) {
        double *lat = s->tr_scratch;
        for (i64 i = 0; i < n; i++) {
            i64 r = s->tr_lo + i;
            lat[i] = s->out_finish[r] - s->tr_arrival[r];
        }
        double measured = percentile_linear(lat, n, s->tr_pct);
        double bound = s->tr_bound;
        double error = (bound - measured) / bound;
        s->tr_integral += error * s->trimmer_period;
        double scale = 1.0 + s->tr_kp * error + s->tr_ki * s->tr_integral;
        /* min(max_scale, max(min_scale, scale)), Python's tie rules */
        double floored = scale > s->tr_min_scale ? scale : s->tr_min_scale;
        scale = floored < s->tr_max_scale ? floored : s->tr_max_scale;
        s->tr_integral = s->tr_ki != 0.0
            ? (scale - 1.0 - s->tr_kp * error) / s->tr_ki : 0.0;
        s->target = scale * bound;
    }
    s->trimmer_last_adjust = now;
}

/* ------------------------------------------------------------------ */
/* span event loop (run_trace inner loop)                             */
/* ------------------------------------------------------------------ */

/* Would the controller's _maybe_refresh_tables do any work right now?
 * Mirrors its three guards exactly (ready <=> total >= min_samples,
 * since min_samples <= window). */
static i64 refresh_due(const rk_state *s) {
    if (s->now - s->last_table_update < s->refresh_period) return 0;
    if (s->observed_total < s->profiler_min_samples) return 0;
    if (s->observed_total == s->samples_at_last_update) return 0;
    return 1;
}

/* Surface for a due refresh, with both pmfs and their tables' row
 * bounds ready for the snapshot. */
static i64 refresh_surface(rk_state *s) {
    if (!refresh_due(s))
        return 0;
    for (i64 k = 0; k < 2; k++) {
        prof_snapshot(s, k);
        snapshot_bounds(s, k);
    }
    return 1;
}

/* Core._begin_service, with MicroarchInterference.__call__ inlined:
 * the first request after a batch interval pays the refill penalty. */
static void begin_service(rk_state *s, i64 rid) {
    close_segment(s);
    double cycles = s->tr_cycles[rid];
    if (s->batch_interval_valid) {
        double interval = s->now - s->batch_interval_start;
        s->batch_interval_valid = 0;
        if (interval > 0.0) {
            double penalty = s->pen_max * (1.0 - exp(-interval / s->pen_tau));
            s->pen_total += penalty;
            s->pen_count++;
            if (penalty > 0.0)
                cycles += penalty;
        }
    }
    s->out_cycles[rid] = cycles;
    s->has_current = 1;
    s->cur_rid = rid;
    s->cur_C = cycles;
    s->cur_M = s->tr_memory[rid];
    s->cur_progress = 0.0;
    s->out_start[rid] = s->now;
    schedule_completion(s);
    open_segment(s);
}

/* Process one arrival; returns nonzero when an Eq. 2 core's table
 * refresh is due before the decide (the profiler is unchanged since
 * the last completion). */
static i64 process_arrival(rk_state *s) {
    i64 rid = s->next_arrival++;
    s->now = s->tr_arrival[rid];
    s->events++;
    ring_push(s, s->now);
    s->queue_epoch++;
    if (!s->has_current)
        begin_service(s, rid);
    else
        rq_push(s, rid);
    return s->lc_policy == LC_EQ2 && refresh_surface(s);
}

/* Process one completion, then (Eq. 2 only) Rubik.on_completion's
 * listener work in its order: the profiler observes the served cycles
 * (penalty included) and the memory time, the trimmer the response
 * time, and the refresh guard runs; surfaces only when a refresh is
 * due. */
static i64 process_completion(rk_state *s) {
    s->now = s->completion_time;
    s->events++;
    s->completion_valid = 0;
    close_segment(s);
    i64 rid = s->cur_rid;
    s->out_finish[rid] = s->now;
    ring_pop(s);
    s->queue_epoch++;
    s->has_current = 0;
    if (s->rq_len > 0) {
        begin_service(s, rq_pop(s));
    } else {
        if (s->batch_on) {
            s->batch_interval_valid = 1;
            s->batch_interval_start = s->now;
        }
        open_segment(s);
    }
    s->completed++;
    if (s->lc_policy != LC_EQ2)
        return 0;
    prof_observe(s, s->out_cycles[rid], s->tr_memory[rid]);
    if (s->trimmer_on)
        trimmer_observe(s, rid);
    return refresh_surface(s);
}

/* The frequency requests an event owes once processed: the policy's
 * own (Rubik's decide; StaticColocScheme's lc_hz on an arrival and on
 * a completion that leaves a request in service, which is exactly
 * while one is in service), then Core._on_completion's: the batch app
 * resumes at its own frequency once the LC queue is empty (an arrival
 * always leaves a request in service).  Restartable: only the decide
 * returns early (RK_NEED_ROWS), before it changes anything. */
static i64 listen(rk_state *s) {
    if (s->lc_policy == LC_EQ2) {
        i64 rc = rk_decide(s);
        if (rc != RK_OK)
            return rc;
        if (s->decision_count < 2 * s->n_req)
            s->decision_log[s->decision_count] = s->decided_hz;
        s->decision_count++;
        dvfs_request(s, s->decided_hz);
    } else if (s->lc_policy == LC_FIXED && s->has_current) {
        dvfs_request(s, s->lc_hz);
    }
    if (s->batch_on && !s->has_current)
        dvfs_request(s, s->batch_hz);
    return RK_OK;
}

/* Buffer headroom before an event: one event closes at most a handful
 * of segments (close + <=4 transition boundaries, twice). */
static i64 headroom(const rk_state *s) {
    if (s->log_segments && s->seg_count + 16 > s->seg_cap)
        return RK_FLUSH_SEGMENTS;
    if (s->record_history && s->hist_count + 4 > s->hist_cap)
        return RK_FLUSH_HISTORY;
    return RK_OK;
}

/* Drive events until done, returning to Python only for NEED_ROWS, a
 * due table refresh, or a full segment-log/history buffer.  Re-enter
 * after servicing; `phase` records whether the current event still owes
 * its frequency requests. */
i64 rk_span(rk_state *s) {
    for (;;) {
        if (s->phase == PH_DECIDE) {
            i64 rc = listen(s);
            if (rc != RK_OK)
                return rc;
            s->phase = PH_NEXT;
        }
        i64 rc = headroom(s);
        if (rc != RK_OK)
            return rc;
        i64 have_arrival = s->next_arrival < s->n_req;
        if (s->completion_valid) {
            /* COMPLETION_PRIORITY=0 beats ARRIVAL_PRIORITY=1 on ties. */
            if (have_arrival
                    && s->tr_arrival[s->next_arrival] < s->completion_time) {
                s->phase = PH_DECIDE;
                if (process_arrival(s))
                    return RK_SURFACE;
            } else {
                s->phase = PH_DECIDE;
                if (process_completion(s))
                    return RK_SURFACE;
            }
        } else if (have_arrival) {
            s->phase = PH_DECIDE;
            if (process_arrival(s))
                return RK_SURFACE;
        } else {
            return RK_DONE;
        }
    }
}

/* ------------------------------------------------------------------ */
/* chip loop: the HW-T/HW-TPW server (repro/coloc/server.py)          */
/* ------------------------------------------------------------------ */
/* The coupled Python loop steps all cores and the ChipLevelAllocator's
 * ticks on one Simulator; events fire in (time, priority, seq) order,
 * completions and ticks at priority 0, arrivals at 1.  Here every
 * pending event carries the sequence number the Simulator would have
 * given it: one shared counter is stamped wherever the Python loop
 * schedules -- an arrival's successor in the chain before the arrival
 * is admitted, each completion (re)schedule (schedule_completion), and
 * each queued tick -- so only the order of stamping has to match. */

/* Does event (t, p, q) fire before (t2, p2, q2)? */
static i64 fires_before(double t, i64 p, i64 q, double t2, i64 p2, i64 q2) {
    if (t != t2) return t < t2;
    if (p != p2) return p < p2;
    return q < q2;
}

/* ChipLevelAllocator._queue_tick after a core event at `now`: a tick at
 * the chain's first boundary after now, none past the horizon.  The
 * chain is walked with the same float additions. */
static void chip_queue_tick(double now, double period, double horizon,
                            i64 *seq, i64 *tick_seq, double *tick_at,
                            double *boundary) {
    if (*tick_seq >= 0)
        return;
    double b = *boundary;
    double nxt = b + period;
    while (nxt <= now) {
        b = nxt;
        nxt = b + period;
    }
    *boundary = b;
    if (nxt > horizon)
        return;
    *tick_seq = (*seq)++;
    *tick_at = nxt;
}

#define EV_NONE 0
#define EV_TICK 1
#define EV_ARRIVAL 2
#define EV_COMPLETION 3

/* Step the cores (each an LC_NONE core whose seq_next points at `seq`)
 * and the allocator's lazy ticks until `total` completions, the
 * horizon or the last event, as run_colocated_server's loop stops.
 * The queued tick is (*tick_at, seq *tick_seq), none when *tick_seq
 * < 0; *boundary is the chain's last boundary.  A tick requests each
 * core's frequency from row `mask` of `table` ([2^ncores * ncores]),
 * where bit c of mask is set while core c serves an LC request; a row
 * with known[mask] == 0 returns RK_CHIP_KEY before the tick changes
 * anything, for the caller to fill and re-enter.  Also returns for a
 * full segment-log/history buffer of any core.  On RK_DONE every
 * core's clock is the last event's time; *ticks counts fired ticks. */
i64 rk_chip(i64 ncores, rk_state **cores, double period, double horizon,
            i64 total, const double *table, const i64 *known, i64 *seq,
            i64 *tick_seq, double *tick_at, double *boundary, i64 *ticks) {
    i64 done = 0;
    double now = 0.0;
    for (i64 c = 0; c < ncores; c++) {
        done += cores[c]->completed;
        if (cores[c]->now > now)
            now = cores[c]->now;
    }
    while (done < total) {
        for (i64 c = 0; c < ncores; c++) {
            i64 rc = headroom(cores[c]);
            if (rc != RK_OK)
                return rc;
        }
        i64 kind = EV_NONE, who = -1, prio = 0, q = 0;
        double t = 0.0;
        if (*tick_seq >= 0) {
            kind = EV_TICK;
            t = *tick_at;
            q = *tick_seq;
        }
        for (i64 c = 0; c < ncores; c++) {
            rk_state *s = cores[c];
            if (s->completion_valid && (kind == EV_NONE || fires_before(
                    s->completion_time, 0, s->comp_seq, t, prio, q))) {
                kind = EV_COMPLETION;
                who = c;
                t = s->completion_time;
                prio = 0;
                q = s->comp_seq;
            }
            if (s->next_arrival < s->n_req) {
                double at = s->tr_arrival[s->next_arrival];
                if (kind == EV_NONE
                        || fires_before(at, 1, s->arr_seq, t, prio, q)) {
                    kind = EV_ARRIVAL;
                    who = c;
                    t = at;
                    prio = 1;
                    q = s->arr_seq;
                }
            }
        }
        if (kind == EV_NONE)
            break;
        now = t;
        if (kind == EV_TICK) {
            /* ChipLevelAllocator._tick */
            i64 mask = 0;
            for (i64 c = 0; c < ncores; c++)
                if (cores[c]->has_current)
                    mask |= (i64)1 << c;
            if (!known[mask])
                return RK_CHIP_KEY;
            *tick_seq = -1;
            *boundary = now;
            (*ticks)++;
            const double *freqs = table + mask * ncores;
            for (i64 c = 0; c < ncores; c++) {
                cores[c]->now = now;
                dvfs_request(cores[c], freqs[c]);
            }
        } else {
            /* A core event: feed_arrivals chains the successor before
             * the arrival is admitted; the listeners then run (the HW
             * scheme's are empty, the allocator queues a tick), and
             * after them the drained core's batch request. */
            rk_state *s = cores[who];
            if (kind == EV_ARRIVAL) {
                if (s->next_arrival + 1 < s->n_req)
                    s->arr_seq = (*seq)++;
                process_arrival(s);
            } else {
                process_completion(s);
                done++;
            }
            chip_queue_tick(now, period, horizon, seq, tick_seq, tick_at,
                            boundary);
            listen(s);
        }
        if (now > horizon)
            break;
    }
    for (i64 c = 0; c < ncores; c++)
        cores[c]->now = now;
    return RK_DONE;
}

/* ------------------------------------------------------------------ */
/* oracle searches (repro/schemes/adrenaline.py, dynamic_oracle.py)   */
/* ------------------------------------------------------------------ */
/* Only the sequential per-request loops live here; the per-round
 * ranking and every reduction (sums, means, percentiles) stay in numpy.
 * Each float operation repeats the Python one in the same order. */

/* One FIFO replay of a two-level candidate: service svc_i = hi_i where
 * mask_i, else lo_i.  Finish times follow
 * replay.lindley_finish_times' own operations -- a sequential cumsum,
 * arrival - (cs - svc), a running max, then + cs -- and not the
 * max(arrival, prev) + svc recurrence, which can differ by an ulp.
 * Writes svc, finish and response; returns the count of responses
 * above bound, or `stop` as soon as that many are (the replay is then
 * infeasible, and the buffers past that response are left unwritten). */
i64 rk_lindley(i64 n, const double *arrival, const double *hi,
               const double *lo, const uint8_t *mask, double bound,
               i64 stop, double *svc, double *finish, double *response) {
    double cs = 0.0;
    double run = 0.0;
    i64 above = 0;
    for (i64 i = 0; i < n; i++) {
        double s = mask[i] ? hi[i] : lo[i];
        cs += s;
        double offset = arrival[i] - (cs - s);
        if (i == 0 || offset > run)
            run = offset;
        double f = run + cs;
        double r = f - arrival[i];
        svc[i] = s;
        finish[i] = f;
        response[i] = r;
        above += r > bound;
        if (above >= stop)
            break;
    }
    return above;
}

/* One DynamicOracle round: try to slow each request of `order` (ranked
 * by the caller) one grid step, walking the finish-time change down its
 * busy period and counting the violation change as it goes; keep the
 * trial when the violation count stays within budget.  `steps[i]` is
 * request i's grid index, `bad[i]` its flag finish[i] - arrival[i] >
 * bound.  On accept, finish, bad, freqs and steps are written in place;
 * trial_finish / trial_bad ([n] each) hold a trial until then.
 * `*viol` is the running violation count.  Returns the accepted count. */
i64 rk_dyn_round(i64 n, const double *arrival, const double *cycles,
                 const double *memory, const double *grid,
                 const i64 *order, i64 norder, double bound, i64 budget,
                 i64 *viol, double *freqs, i64 *steps, double *finish,
                 uint8_t *bad, double *trial_finish, uint8_t *trial_bad) {
    i64 accepted = 0;
    for (i64 k = 0; k < norder; k++) {
        i64 i = order[k];
        i64 s = steps[i];
        if (s == 0)
            continue;
        double lower = grid[s - 1];
        double prev = i > 0 ? finish[i - 1] : -RK_INF;
        double a = arrival[i];
        double start = a > prev ? a : prev;
        prev = start + cycles[i] / lower + memory[i];
        uint8_t flag = prev - a > bound;
        trial_finish[0] = prev;
        trial_bad[0] = flag;
        i64 delta = (i64)flag - (i64)bad[i];
        i64 j = i + 1;
        while (j < n) {
            a = arrival[j];
            start = a > prev ? a : prev;
            double nf = start + cycles[j] / freqs[j] + memory[j];
            if (nf == finish[j])
                break;  /* busy period drained; suffix unchanged */
            flag = nf - a > bound;
            delta += (i64)flag - (i64)bad[j];
            trial_finish[j - i] = nf;
            trial_bad[j - i] = flag;
            prev = nf;
            j++;
        }
        if (*viol + delta <= budget) {
            for (i64 m = i; m < j; m++) {
                finish[m] = trial_finish[m - i];
                bad[m] = trial_bad[m - i];
            }
            freqs[i] = lower;
            steps[i] = s - 1;
            *viol += delta;
            accepted++;
        }
    }
    return accepted;
}
