"""The C span loop keeps Rubik's profiler window, PI trimmer and energy
meter; after a run they hold what the Python loop leaves behind.

Per completion, ``rk_span`` adds the served cycles and memory time to
the profiler's sliding windows and keeps their bucket counts, runs the
trimmer's eviction and PI update (with NumPy's linear percentile), and
folds every closed segment into the meter's sums and residency maps.
Every run starts that state empty (``Rubik.setup`` resets it, and the
session rejects a core whose meter has recorded time); the session
exports it at the end. Pinned here:

* a hypothesis sweep over apps, loads, seeds, feedback on and off, run
  lengths, plain and colocated cores and a reused controller, comparing
  the native run with the Python-kernel run on every result field, the
  controller's state and the meter's residency maps in key order;
* the C percentile against ``np.percentile``, ties included;
* a native run whose metrics build no ``Request`` object.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloc.batch import BatchTask, generate_mixes
from repro.coloc.interference import MicroarchInterference
from repro.coloc.schemes import RubikColocScheme
from repro.core._native import build
from repro.core._native.kernel import oracle_library
from repro.core._native.session import NativeRunSession
from repro.core.controller import Rubik
from repro.core.table_cache import TABLE_CACHE
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request
from repro.sim.server import run_trace, serve
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, MASSTREE

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not build.available(),
                       reason="native library unavailable"),
]

MIXES = generate_mixes(2, seed=0)


def controller_state(rubik):
    """Everything a later run or a reader can see of the controller."""
    profiler = rubik.profiler
    streams = []
    for stream in (profiler._cycles, profiler._memory):
        stream.sync()
        streams.append((
            list(stream.samples), stream.max_value, stream._max_count,
            stream._width,
            None if stream._counts is None else stream._counts.tolist()))
    trimmer = rubik.trimmer
    trim = None if trimmer is None else (
        trimmer.internal_target_s, trimmer._integral, trimmer._last_adjust,
        list(trimmer._estimator._samples), trimmer._estimator._last_time)
    return (streams, profiler.total_observed, trim, rubik.table_updates,
            rubik.refresh_stats.as_dict(), rubik.kernel_stats.as_dict(),
            rubik._last_table_update, rubik._samples_at_last_update)


def meter_state(core):
    meter = core.meter
    return (meter.energy_j, meter.active_energy_j, meter.batch_energy_j,
            meter.idle_energy_j, meter.total_time_s, meter.busy_time_s,
            meter.batch_time_s, list(meter._freq_residency.items()),
            list(meter._busy_freq_residency.items()))


def request_rows(requests):
    return [(r.rid, r.arrival_time, r.compute_cycles, r.memory_time_s,
             r.start_time, r.finish_time, r.progress, r.predicted_cycles)
            for r in requests]


def _plain_run(trace, rubik, context):
    """run_trace, keeping the core; returns every RunResult field."""
    cores = []
    real_serve = serve

    def recording_serve(sim, core, scheme, ctx, tr):
        cores.append(core)
        real_serve(sim, core, scheme, ctx, tr)

    from repro.sim import server as server_mod
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server_mod, "serve", recording_serve)
        res = run_trace(trace, rubik, context, log_segments=True)
    return (request_rows(res.requests), res.warmup, res.duration_s,
            res.energy_j, res.active_energy_j, res.idle_energy_j,
            res.busy_time_s, res.utilization, res.busy_freq_hist,
            res.dvfs_transitions, res.segment_log, res.events_processed,
            res.tail_latency(), res.response_times().tolist(),
            res.service_times().tolist(), res.energy_per_request_j,
            meter_state(cores[0]))


def _colocated_run(trace, rubik, context, mix):
    """One colocated core served alone, closed as the server closes it."""
    sim = Simulator()
    task = BatchTask(mix, context.dvfs, DEFAULT_CORE_POWER)
    interference = MicroarchInterference(max_penalty_cycles=2e5)
    core = Core(sim, context.dvfs, DEFAULT_CORE_POWER, background=task,
                interference_cycles=interference, log_segments=True)
    serve(sim, core, rubik, context, trace)
    core.finalize()
    return (request_rows(core.completed), sim.now,
            core.completion_columns().response_times().tolist(),
            core.segment_log, task.instructions, task.run_time_s,
            interference.total_penalty_cycles,
            interference.penalized_requests, core.dvfs.transitions,
            meter_state(core))


def _runs(path, app, loads, seed, n, feedback, colocated, mix):
    """Serve one trace per load with one controller (reused across
    them); each run's fields and the controller state after it."""
    context = make_context(app, seed, n)
    cls = RubikColocScheme if colocated else Rubik
    rubik = cls(feedback=feedback, path=path)
    sessions = []
    real_run = NativeRunSession.run

    def counting_run(self):
        sessions.append(self)
        real_run(self)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NativeRunSession, "run", counting_run)
        for i, load in enumerate(loads):
            TABLE_CACHE.clear()
            trace = Trace.generate_at_load(app, load, n, seed + i)
            if colocated:
                fields = _colocated_run(trace, rubik, context, mix)
            else:
                fields = _plain_run(trace, rubik, context)
            out.append((fields, controller_state(rubik)))
    return out, len(sessions)


@settings(max_examples=20, deadline=None)
@given(app=st.sampled_from(sorted(APPS)),
       loads=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=2),
       seed=st.integers(0, 2**16), n=st.integers(60, 800),
       feedback=st.booleans(), colocated=st.booleans(),
       mix=st.sampled_from([MIXES[0][0], MIXES[1][3]]))
def test_native_state_matches_python(app, loads, seed, n, feedback,
                                     colocated, mix):
    """Two loads means one controller serves two traces in a row."""
    args = (APPS[app], loads, seed, n, feedback, colocated, mix)
    native, sessions = _runs("auto", *args)
    python, none = _runs("kernel", *args)
    assert sessions == len(loads) and none == 0
    for got, want in zip(native, python):
        assert got[0] == want[0]
        assert got[1] == want[1]


def test_cache_hits_count_the_cells_c_built():
    """Constant demand re-resolves every refresh to the pair already
    bound: each hit counts the cells built so far (``columns_carried``),
    which on the span loop C built, so they must be in the tables' row
    lists before the refresh resolves the pair."""
    import dataclasses as dc

    app = dc.replace(MASSTREE, service_cv=0.0, long_fraction=0.0)
    context = make_context(app, 21, 800)
    trace = Trace.generate_at_load(app, 0.5, 800, 21)
    stats = {}
    for path in ("auto", "kernel"):
        TABLE_CACHE.clear()
        rubik = Rubik(path=path)
        run_trace(trace, rubik, context)
        stats[path] = rubik.refresh_stats.as_dict()
    assert stats["auto"]["columns_carried"] > 0
    assert stats["auto"] == stats["kernel"]


# -- the percentile -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5000), distinct=st.integers(1, 60),
       ties=st.booleans(), seed=st.integers(0, 2**32 - 1),
       pct=st.one_of(st.just(95.0), st.floats(0.0, 100.0)))
def test_percentile_matches_numpy(n, distinct, ties, seed, pct):
    rng = np.random.default_rng(seed)
    if ties:
        values = rng.choice(rng.exponential(size=distinct), size=n)
    else:
        values = rng.exponential(size=n)
    before = values.copy()
    scratch = np.empty(n)
    lib = oracle_library()
    got = lib.rk_percentile(n, values.ctypes.data, pct, scratch.ctypes.data)
    assert got == float(np.percentile(values, pct))
    assert np.array_equal(values, before)  # selection ran on the copy


# -- no Request objects -------------------------------------------------


def test_native_metrics_build_no_requests(monkeypatch):
    built = []
    real_post_init = Request.__post_init__

    def counting_post_init(self):
        built.append(self.rid)
        real_post_init(self)

    monkeypatch.setattr(Request, "__post_init__", counting_post_init)
    context = make_context(MASSTREE, 5, 400)
    trace = Trace.generate_at_load(MASSTREE, 0.6, 400, 5)
    res = run_trace(trace, Rubik(), context)
    res.tail_latency()
    res.violation_rate(context.latency_bound_s)
    assert res.energy_per_request_j > 0
    assert built == []
    assert len(res.requests) == 400 and len(built) == 400


def test_negative_demand_still_raises():
    trace = Trace.generate_at_load(MASSTREE, 0.5, 100, 2)
    trace.memory_time_s[7] = -1e-6
    with pytest.raises(ValueError, match="non-negative"):
        run_trace(trace, Rubik(), make_context(MASSTREE, 2, 100))


def test_python_loop_columns_follow_its_list():
    """On the Python loop the columns are built from the Request list,
    once, and the list is the one RunResult.requests returns."""
    context = make_context(MASSTREE, 5, 200)
    trace = Trace.generate_at_load(MASSTREE, 0.6, 200, 5)
    res = run_trace(trace, Rubik(path="kernel"), context)
    cols = res.completions
    assert len(cols) == 200
    assert res.requests is cols.requests()
    assert res.response_times(include_warmup=True).tolist() == [
        r.response_time for r in res.requests]


def test_eviction_keeps_a_sample_exactly_one_window_old():
    """RollingTailEstimator evicts samples strictly older than
    ``now - window_s``. Memory-only requests arriving every 1/16 s
    finish at exact binary fractions, so samples sit exactly one window
    (1 s) before later completions, and C must keep them as Python
    does."""
    n = 120
    trace = Trace(np.arange(n) / 16.0, np.zeros(n), np.full(n, 2.0**-10))
    context = make_context(MASSTREE, 3, 200)
    states = {}
    for path in ("auto", "kernel"):
        TABLE_CACHE.clear()
        rubik = Rubik(path=path)
        run_trace(trace, rubik, context)
        states[path] = controller_state(rubik)
    samples = states["auto"][2][3]
    assert samples[0][0] == samples[-1][0] - 1.0  # the boundary case
    assert states["auto"] == states["kernel"]


def test_residency_maps_keep_first_seen_order():
    """The meter's residency maps gain keys in first-seen order (the
    order their normalizing sums run in), not sorted."""
    context = make_context(MASSTREE, 5, 300)
    trace = Trace.generate_at_load(MASSTREE, 0.6, 300, 5)
    maps = {}
    for path in ("auto", "kernel"):
        sim = Simulator()
        core = Core(sim, context.dvfs, DEFAULT_CORE_POWER)
        serve(sim, core, Rubik(path=path), context, trace)
        core.finalize(settle_dvfs=True)
        maps[path] = meter_state(core)[-2:]
    assert maps["auto"] == maps["kernel"]
    keys = [freq for freq, _ in maps["auto"][0]]
    assert keys != sorted(keys)
