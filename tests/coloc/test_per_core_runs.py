"""Every colocated core runs in C when the library loads: RubikColoc and
StaticColoc cores one at a time on the span loop, the HW-T and HW-TPW
servers' six cores together on the chip loop; outputs stay bitwise
those of the coupled event loop.

``reference_colocated_server`` is that coupled loop, kept as test code:
all six cores on one simulator, stepped until every LC request has
completed, then finalized together. ``run_colocated_server`` is pinned
against it for all four schemes on both paths -- the native library
loaded, and ``build.load_library`` patched to None as on a machine
without ``cc`` -- and a hypothesis sweep compares the two paths core by
core. The chip loop is also driven directly on exact ties (one trace on
all six cores, arrivals and completions on the allocator's 100 us
boundaries).
"""

import contextlib
import dataclasses
import weakref
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloc import server as coloc_server
from repro.coloc.batch import BatchTask, generate_mixes
from repro.coloc.interference import (
    MicroarchInterference,
    footprint_penalty_cycles,
)
from repro.coloc.schemes import (
    HW_SCHEME_PERIOD_S,
    ChipLevelAllocator,
    HwScheme,
    RubikColocScheme,
    StaticColocScheme,
)
from repro.coloc.server import (
    COLOC_SCHEME_NAMES,
    WARMUP_PER_CORE,
    ColocResult,
    make_coloc_scheme,
    run_colocated_server,
)
from repro.config import DEFAULT_CMP
from repro.core._native import build
from repro.core._native.session import NativeChipSession, NativeRunSession
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.server import feed_arrivals, serve
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, MASSTREE, app_names

MIXES = generate_mixes(3, seed=0)

#: The schemes whose cores share one event loop.
HW_SCHEMES = ("HW-T", "HW-TPW")

#: The two paths: the native library's span loop, and the Python loop.
PATHS = [
    pytest.param("native", marks=[
        pytest.mark.native,
        pytest.mark.skipif(not build.available(),
                           reason="native library unavailable")]),
    "python",
]


def on_path(path):
    if path == "native":
        return contextlib.nullcontext()
    return mock.patch.object(build, "load_library", lambda: None)


# -- reference: the coupled event loop ---------------------------------


class _Completions:
    def __init__(self) -> None:
        self.count = 0

    def on_arrival(self, core, request) -> None:
        pass

    def on_completion(self, core, request) -> None:
        self.count += 1


def reference_coupled_loop(sim, cores, traces, objective, lc_demand,
                           horizon) -> None:
    """Feed every core's trace, then step all cores (and, for an HW
    ``objective``, the chip allocator) on ``sim`` until every request
    has completed or the clock passes ``horizon``."""
    completions = _Completions()
    for core, trace in zip(cores, traces):
        core.add_listener(completions)
        feed_arrivals(sim, core, trace.to_requests())
    if objective is not None:
        ChipLevelAllocator(sim, cores, DEFAULT_CMP, DEFAULT_CORE_POWER,
                           objective=objective, lc_demand=lc_demand,
                           horizon_s=horizon)
    total = sum(len(trace) for trace in traces)
    while completions.count < total:
        if not sim.step():
            break
        if sim.now > horizon:
            break


def reference_colocated_server(app, load, mix, scheme_name, context,
                               seed, requests_per_core) -> ColocResult:
    """``run_colocated_server`` as one event loop over all six cores."""
    lc_demand = app.mean_demands()
    penalty = footprint_penalty_cycles(lc_demand[0])
    n_cores = DEFAULT_CMP.num_cores
    n_req = requests_per_core
    lc_static_hz = None
    if scheme_name == "StaticColoc":
        tuning_trace = Trace.generate_at_load(app, load, n_req,
                                              seed=seed * 100 + 91)
        lc_static_hz = find_static_frequency(
            tuning_trace, context.latency_bound_s, context)

    sim = Simulator()
    cores, tasks, interferences, traces = [], [], [], []
    for ci in range(n_cores):
        task = BatchTask(mix[ci % len(mix)], context.dvfs,
                         DEFAULT_CORE_POWER)
        interference = MicroarchInterference(max_penalty_cycles=penalty)
        core = Core(sim, context.dvfs, DEFAULT_CORE_POWER,
                    background=task, interference_cycles=interference)
        scheme = make_coloc_scheme(scheme_name, lc_static_hz)
        scheme.setup(sim, core, context)
        trace = Trace.generate_at_load(app, load, n_req,
                                       seed=seed * 100 + ci)
        cores.append(core)
        tasks.append(task)
        interferences.append(interference)
        traces.append(trace)

    horizon = max(t.arrivals[-1] for t in traces) + 100.0
    objective = None
    if scheme_name in HW_SCHEMES:
        objective = "throughput" if scheme_name == "HW-T" else "tpw"
    reference_coupled_loop(sim, cores, traces, objective, lc_demand,
                           horizon)
    for core in cores:
        core.finalize()

    lc_latencies = np.concatenate([
        np.array([r.response_time for r in core.completed[WARMUP_PER_CORE:]])
        for core in cores])
    batch_instr = {}
    for task in tasks:
        batch_instr[task.profile.name] = (
            batch_instr.get(task.profile.name, 0.0) + task.instructions)
    return ColocResult(
        scheme=scheme_name,
        lc_response_times=lc_latencies,
        duration_s=sim.now,
        core_energy_j=sum(c.meter.energy_j for c in cores),
        lc_busy_time_s=sum(c.meter.busy_time_s for c in cores),
        batch_time_s=sum(c.meter.batch_time_s for c in cores),
        num_cores=n_cores,
        batch_instructions=batch_instr,
        interference_penalty_cycles=sum(
            i.total_penalty_cycles for i in interferences),
    )


def fields(result: ColocResult) -> dict:
    """Every ColocResult field, arrays as lists, for exact comparison."""
    out = dataclasses.asdict(result)
    out["lc_response_times"] = result.lc_response_times.tolist()
    return out


# -- per-core runs against the coupled loop ----------------------------

#: (app, load, seed, mix): every app, a light and an overloaded load.
CASES = [(app, load, seed, mix) for app in app_names()
         for load in (0.3, 1.2) for seed in (3, 8) for mix in (0, 1)]
N_REQ = 70


@pytest.fixture(scope="module")
def references():
    """The coupled loop's results, on the Python kernel."""
    out = {}
    with on_path("python"):
        for app, load, seed, mix in CASES:
            context = make_context(APPS[app], seed, 2 * N_REQ)
            for scheme in COLOC_SCHEME_NAMES:
                out[app, load, seed, mix, scheme] = fields(
                    reference_colocated_server(
                        APPS[app], load, MIXES[mix], scheme, context, seed,
                        N_REQ))
    return out


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("scheme", COLOC_SCHEME_NAMES)
def test_per_core_runs_match_coupled_loop(path, scheme, references):
    for app, load, seed, mix in CASES:
        context = make_context(APPS[app], seed, 2 * N_REQ)
        with on_path(path):
            got = run_colocated_server(APPS[app], load, MIXES[mix], scheme,
                                       context, seed=seed,
                                       requests_per_core=N_REQ)
        assert fields(got) == references[app, load, seed, mix, scheme], (
            app, load, mix)


# -- native against Python, core by core -------------------------------


def core_state(core):
    """Everything a reader can see of one colocated core after its run:
    the completed records, the segment log, the batch and penalty sums,
    the DVFS state and the meter."""
    meter = core.meter
    dvfs = core.dvfs
    return (
        [(r.rid, r.arrival_time, r.compute_cycles, r.memory_time_s,
          r.start_time, r.finish_time, r.progress, r.predicted_cycles)
         for r in core.completed],
        core.queue_epoch, core.segment_log,
        core.background.instructions, core.background.run_time_s,
        core._interference_cycles.total_penalty_cycles,
        core._interference_cycles.penalized_requests,
        dvfs.transitions, dvfs._current_hz, dvfs._pending_target,
        dvfs._latched_target, core._batch_interval_start,
        meter.energy_j, meter.active_energy_j, meter.batch_energy_j,
        meter.idle_energy_j, meter.total_time_s, meter.busy_time_s,
        meter.batch_time_s, list(meter._freq_residency.items()),
        list(meter._busy_freq_residency.items()),
    )


def _counting_finish():
    """Patch counting the cores whose run a native session finished:
    one per core, whichever C loop ran it."""
    finished = []
    real_finish = NativeRunSession._finish

    def counting(self):
        finished.append(self.core)
        real_finish(self)

    return finished, mock.patch.object(NativeRunSession, "_finish",
                                       counting)


def _recorded_run(app, load, mix, seed, n, path, scheme):
    """Run a colocated server with segment logs on, returning its result
    fields, every core's state, and how many cores ran in C."""
    cores: List[Core] = []
    real_coupled = coloc_server._run_coupled

    def recording_serve(sim, core, scheme, context, trace):
        core.segment_log = []
        cores.append(core)
        serve(sim, core, scheme, context, trace)

    def recording_coupled(sim, hw_cores, *args):
        for core in hw_cores:
            core.segment_log = []
        cores.extend(hw_cores)
        return real_coupled(sim, hw_cores, *args)

    context = make_context(app, seed, 2 * n)
    finished, counting = _counting_finish()
    with on_path(path), counting, \
            mock.patch.object(coloc_server, "serve", recording_serve), \
            mock.patch.object(coloc_server, "_run_coupled",
                              recording_coupled):
        result = run_colocated_server(app, load, mix, scheme, context,
                                      seed=seed, requests_per_core=n)
    return fields(result), [core_state(c) for c in cores], len(finished)


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@pytest.mark.parametrize("scheme", COLOC_SCHEME_NAMES)
@settings(max_examples=15, deadline=None)
@given(app=st.sampled_from(sorted(APPS)), load=st.floats(0.05, 1.5),
       seed=st.integers(0, 2**16), mix=st.integers(0, len(MIXES) - 1),
       n=st.integers(60, 400))
def test_native_colocated_cores_match_python(scheme, app, load, seed, mix,
                                             n):
    native = _recorded_run(APPS[app], load, MIXES[mix], seed, n, "native",
                           scheme)
    python = _recorded_run(APPS[app], load, MIXES[mix], seed, n, "python",
                           scheme)
    assert native[2] == DEFAULT_CMP.num_cores and python[2] == 0
    assert native[0] == python[0]
    for core, (got, want) in enumerate(zip(native[1], python[1])):
        assert got == want, core


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@pytest.mark.parametrize("scheme", COLOC_SCHEME_NAMES)
def test_every_core_runs_in_c(scheme):
    """With the library loaded, each of the six cores of every scheme's
    server runs in a native session, the HW servers' through one chip
    session."""
    chips = []
    real_run = NativeChipSession.run

    def counting_chip(self):
        chips.append(self)
        return real_run(self)

    finished, counting = _counting_finish()
    context = make_context(MASSTREE, 3, 200)
    with counting, mock.patch.object(NativeChipSession, "run",
                                     counting_chip):
        run_colocated_server(MASSTREE, 0.6, MIXES[0], scheme, context,
                             seed=3, requests_per_core=100)
    assert len(finished) == len(set(map(id, finished))) \
        == DEFAULT_CMP.num_cores
    assert len(chips) == (1 if scheme in HW_SCHEMES else 0)


# -- the chip loop, driven directly ------------------------------------


def _chip_server(traces, objective, penalty_cycles):
    """An HW server's cores on one simulator, schemes set up, segment
    logs on; no arrival fed yet."""
    context = make_context(MASSTREE, 3, 200)
    sim = Simulator()
    cores = []
    for ci in range(len(traces)):
        task = BatchTask(MIXES[1][ci % len(MIXES[1])], context.dvfs,
                         DEFAULT_CORE_POWER)
        core = Core(sim, context.dvfs, DEFAULT_CORE_POWER, background=task,
                    interference_cycles=MicroarchInterference(
                        max_penalty_cycles=penalty_cycles),
                    log_segments=True)
        HwScheme(objective).setup(sim, core, context)
        cores.append(core)
    return sim, cores


def _drive_chip(traces, objective, penalty_cycles, how):
    """Run one HW server by ``how`` -- ``"reference"`` (the coupled loop
    above), ``"python"`` or ``"native"`` (``run_colocated_server``'s
    helper on each path) -- and return what it leaves behind."""
    sim, cores = _chip_server(traces, objective, penalty_cycles)
    lc_demand = MASSTREE.mean_demands()
    horizon = max(t.arrivals[-1] for t in traces) + 100.0
    if how == "reference":
        reference_coupled_loop(sim, cores, traces, objective, lc_demand,
                               horizon)
        end = sim.now
    else:
        with on_path(how):
            end = coloc_server._run_coupled(sim, cores, traces, objective,
                                            lc_demand, horizon)
    for core in cores:
        core.finalize()
    return end, sim.events_processed, [core_state(c) for c in cores]


def _on_boundaries(n, every):
    """``n`` arrival times on the allocator's tick chain, as the
    allocator adds it up (one period at a time from 0), ``every``
    periods apart."""
    chain, t = [], 0.0
    while len(chain) < n * every:
        t = t + HW_SCHEME_PERIOD_S
        chain.append(t)
    return np.array(chain[every - 1::every])


def _tie_traces(kind, seed):
    rng = np.random.default_rng(seed)
    n = 60
    if kind == "same-trace":
        # One trace on all six cores: every arrival ties across cores.
        trace = Trace.generate_at_load(MASSTREE, 0.9, n, seed)
        return [trace] * DEFAULT_CMP.num_cores
    if kind == "arrivals-on-ticks":
        arrivals = _on_boundaries(n, 2)
        return [Trace(arrivals, rng.exponential(2e5, n),
                      rng.exponential(2e-5, n))
                for _ in range(DEFAULT_CMP.num_cores)]
    # Memory-only requests of exactly one period, arriving on the
    # chain: each completes on the next boundary, tying with its tick.
    arrivals = _on_boundaries(n, 1 + seed % 3)
    return [Trace(arrivals, np.zeros(n), np.full(n, HW_SCHEME_PERIOD_S))
            for _ in range(DEFAULT_CMP.num_cores)]


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@pytest.mark.parametrize("objective", ["throughput", "tpw"])
@pytest.mark.parametrize("kind", ["same-trace", "arrivals-on-ticks",
                                  "completions-on-ticks"])
@pytest.mark.parametrize("seed", [1, 2])
def test_chip_loop_breaks_exact_ties_like_the_coupled_loop(objective, kind,
                                                           seed):
    traces = _tie_traces(kind, seed)
    penalty = 0.0 if kind == "completions-on-ticks" else 3e4
    want = _drive_chip(traces, objective, penalty, "reference")
    for how in ("python", "native"):
        assert _drive_chip(traces, objective, penalty, how) == want, how


# -- which cores take the C loop ---------------------------------------


MASSTREE_CONTEXT = make_context(MASSTREE, 3, 200)


def _colocated_core(sim, interference):
    task = BatchTask(MIXES[0][0], MASSTREE_CONTEXT.dvfs, DEFAULT_CORE_POWER)
    return Core(sim, MASSTREE_CONTEXT.dvfs, DEFAULT_CORE_POWER,
                background=task, interference_cycles=interference)


class _HookedRubik(RubikColocScheme):
    def on_arrival(self, core, request) -> None:
        super().on_arrival(core, request)


class _HookedStatic(StaticColocScheme):
    def on_completion(self, core, request) -> None:
        super().on_completion(core, request)


LC_HZ = MASSTREE_CONTEXT.dvfs.frequencies[6]


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@pytest.mark.parametrize("make_scheme, interference, engages", [
    (RubikColocScheme, MicroarchInterference(), True),
    (_HookedRubik, MicroarchInterference(), False),
    (RubikColocScheme, lambda interval, request: 0.0, False),
    (lambda: StaticColocScheme(LC_HZ), MicroarchInterference(), True),
    (lambda: _HookedStatic(LC_HZ), MicroarchInterference(), False),
], ids=["rubik-coloc", "overridden-hook", "other-penalty-callable",
        "static-coloc", "static-overridden-hook"])
def test_span_loop_eligibility(make_scheme, interference, engages):
    sim = Simulator()
    core = _colocated_core(sim, interference)
    scheme = make_scheme()
    scheme.setup(sim, core, MASSTREE_CONTEXT)
    trace = Trace.generate_at_load(MASSTREE, 0.5, 100, 3)
    assert (scheme.native_session(sim, core, trace) is not None) == engages


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
def test_session_drops_its_buffers(monkeypatch):
    """Nothing references a finished session (the controller keeps only
    its KernelStats), so its struct and buffers go with it and six
    per-core runs do not hold six buffer sets."""
    sessions = []
    real_run = NativeRunSession.run

    def spy(self):
        sessions.append(weakref.ref(self))
        real_run(self)

    monkeypatch.setattr(NativeRunSession, "run", spy)
    sim = Simulator()
    core = _colocated_core(sim, MicroarchInterference())
    scheme = RubikColocScheme()
    serve(sim, core, scheme, MASSTREE_CONTEXT,
          Trace.generate_at_load(MASSTREE, 0.5, 100, 3))
    assert len(sessions) == 1
    assert sessions[0]() is None
    assert scheme.decision_path == "native"
    assert scheme.kernel_stats.decisions == 200
    assert len(core.completed) == 100


def test_trace_columns_are_never_written():
    """The trace's own float64 arrays feed the C loop directly; the
    penalized cycles go to a session column, never into the trace."""
    trace = Trace.generate_at_load(MASSTREE, 0.5, 150, 4)
    before = trace.compute_cycles.copy()
    sim = Simulator()
    core = _colocated_core(sim, MicroarchInterference())
    serve(sim, core, RubikColocScheme(), MASSTREE_CONTEXT, trace)
    assert core._interference_cycles.penalized_requests > 0
    assert np.array_equal(trace.compute_cycles, before)
    assert any(r.compute_cycles != c
               for r, c in zip(core.completed, before.tolist()))
