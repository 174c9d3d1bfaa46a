"""RubikColoc and StaticColoc cores run one at a time, and a native-path
RubikColoc core runs on the C span loop; outputs stay bitwise those of
the coupled event loop.

``reference_colocated_server`` is that coupled loop, kept as test code:
all six cores on one simulator, stepped until every LC request has
completed, then finalized together. ``run_colocated_server`` is pinned
against it on both paths -- the native library loaded, and
``build.load_library`` patched to None as on a machine without ``cc``
-- and a hypothesis sweep compares the two paths core by core.
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
from repro.coloc.schemes import ChipLevelAllocator, RubikColocScheme
from repro.coloc.server import (
    WARMUP_PER_CORE,
    ColocResult,
    make_coloc_scheme,
    run_colocated_server,
)
from repro.config import DEFAULT_CMP
from repro.core._native import build
from repro.core._native.session import NativeRunSession
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.server import feed_arrivals, serve
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, MASSTREE, app_names

MIXES = generate_mixes(3, seed=0)

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
    completions = _Completions()
    cores, tasks, interferences, traces = [], [], [], []
    for ci in range(n_cores):
        task = BatchTask(mix[ci % len(mix)], context.dvfs,
                         DEFAULT_CORE_POWER)
        interference = MicroarchInterference(max_penalty_cycles=penalty)
        core = Core(sim, context.dvfs, DEFAULT_CORE_POWER,
                    background=task, interference_cycles=interference)
        scheme = make_coloc_scheme(scheme_name, lc_static_hz)
        scheme.setup(sim, core, context)
        core.add_listener(completions)
        trace = Trace.generate_at_load(app, load, n_req,
                                       seed=seed * 100 + ci)
        feed_arrivals(sim, core, trace.to_requests())
        cores.append(core)
        tasks.append(task)
        interferences.append(interference)
        traces.append(trace)

    horizon = max(t.arrivals[-1] for t in traces) + 100.0
    if scheme_name in ("HW-T", "HW-TPW"):
        objective = "throughput" if scheme_name == "HW-T" else "tpw"
        ChipLevelAllocator(sim, cores, DEFAULT_CMP, DEFAULT_CORE_POWER,
                           objective=objective, lc_demand=lc_demand,
                           horizon_s=horizon)
    total = n_req * n_cores
    while completions.count < total:
        if not sim.step():
            break
        if sim.now > horizon:
            break
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
            for scheme in ("RubikColoc", "StaticColoc"):
                out[app, load, seed, mix, scheme] = fields(
                    reference_colocated_server(
                        APPS[app], load, MIXES[mix], scheme, context, seed,
                        N_REQ))
    return out


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("scheme", ["RubikColoc", "StaticColoc"])
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


def _recorded_run(app, load, mix, seed, n, path):
    """Run a RubikColoc server with segment logs on, returning its result
    fields and every core's records, and how many C sessions ran."""
    cores: List[Core] = []
    sessions = []
    real_run = NativeRunSession.run

    def recording_serve(sim, core, scheme, context, trace):
        core.segment_log = []
        cores.append(core)
        serve(sim, core, scheme, context, trace)

    def counting_run(self):
        sessions.append(self)
        real_run(self)

    context = make_context(app, seed, 2 * n)
    with on_path(path), \
            mock.patch.object(coloc_server, "serve", recording_serve), \
            mock.patch.object(NativeRunSession, "run", counting_run):
        result = run_colocated_server(app, load, mix, "RubikColoc",
                                      context, seed=seed,
                                      requests_per_core=n)
    per_core = [(
        [(r.rid, r.arrival_time, r.compute_cycles, r.memory_time_s,
          r.start_time, r.finish_time, r.progress) for r in core.completed],
        core.segment_log, core.background.instructions,
        core.background.run_time_s,
        core._interference_cycles.total_penalty_cycles,
        core._interference_cycles.penalized_requests,
        core.dvfs.transitions, core.meter.energy_j,
    ) for core in cores]
    return fields(result), per_core, len(sessions)


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@settings(max_examples=15, deadline=None)
@given(app=st.sampled_from(sorted(APPS)), load=st.floats(0.05, 1.5),
       seed=st.integers(0, 2**16), mix=st.integers(0, len(MIXES) - 1),
       n=st.integers(60, 400))
def test_native_colocated_cores_match_python(app, load, seed, mix, n):
    native = _recorded_run(APPS[app], load, MIXES[mix], seed, n, "native")
    python = _recorded_run(APPS[app], load, MIXES[mix], seed, n, "python")
    assert native[2] == DEFAULT_CMP.num_cores and python[2] == 0
    assert native[0] == python[0]
    for core, (got, want) in enumerate(zip(native[1], python[1])):
        assert got == want, core


# -- which cores take the C loop ---------------------------------------


MASSTREE_CONTEXT = make_context(MASSTREE, 3, 200)


def _colocated_core(sim, interference):
    task = BatchTask(MIXES[0][0], MASSTREE_CONTEXT.dvfs, DEFAULT_CORE_POWER)
    return Core(sim, MASSTREE_CONTEXT.dvfs, DEFAULT_CORE_POWER,
                background=task, interference_cycles=interference)


class _HookedRubik(RubikColocScheme):
    def on_arrival(self, core, request) -> None:
        super().on_arrival(core, request)


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@pytest.mark.parametrize("scheme_cls, interference, engages", [
    (RubikColocScheme, MicroarchInterference(), True),
    (_HookedRubik, MicroarchInterference(), False),
    (RubikColocScheme, lambda interval, request: 0.0, False),
], ids=["rubik-coloc", "overridden-hook", "other-penalty-callable"])
def test_span_loop_eligibility(scheme_cls, interference, engages):
    sim = Simulator()
    core = _colocated_core(sim, interference)
    scheme = scheme_cls()
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
