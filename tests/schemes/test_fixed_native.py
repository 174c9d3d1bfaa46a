"""Fixed-frequency runs on the C span loop.

``FixedFrequency`` and ``StaticOracle`` request nothing per event, so
their runs take the span loop under no LC policy (``LC_NONE``) when
their class adds no event hook. Every ``RunResult`` field -- the
completions, the energy and residency totals, the DVFS transition
count, ``freq_history`` and the segment log -- equals the Python
loop's (``build.load_library`` patched to None, as on a machine without
``cc``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._native import build
from repro.core._native.session import NativeRunSession
from repro.core.controller import Rubik
from repro.experiments.common import make_context
from repro.schemes.fixed import FixedFrequency
from repro.schemes.static_oracle import StaticOracle
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, MASSTREE

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not build.available(),
                       reason="native library unavailable"),
]


def result_fields(run):
    """Every RunResult field, floats compared exactly and maps in key
    order; the requests as records (the native run builds them from its
    columns)."""
    rows = [(r.rid, r.arrival_time, r.compute_cycles, r.memory_time_s,
             r.start_time, r.finish_time, r.progress, r.predicted_cycles)
            for r in run.requests]
    return (rows, run.warmup, run.duration_s, run.energy_j,
            run.active_energy_j, run.idle_energy_j, run.busy_time_s,
            run.utilization, list(run.busy_freq_hist.items()),
            run.dvfs_transitions, run.freq_history, run.segment_log,
            run.events_processed)


def run_both(trace, make_scheme, context):
    """The run on the span loop and on the Python loop, and how many
    span sessions ran."""
    sessions = []
    real_run = NativeRunSession.run

    def counting_run(self):
        sessions.append(self)
        real_run(self)

    kwargs = dict(log_segments=True, record_freq_history=True)
    with mock.patch.object(NativeRunSession, "run", counting_run):
        native = run_trace(trace, make_scheme(), context, **kwargs)
    with mock.patch.object(build, "load_library", lambda: None):
        python = run_trace(trace, make_scheme(), context, **kwargs)
    return result_fields(native), result_fields(python), len(sessions)


@settings(max_examples=20, deadline=None)
@given(app=st.sampled_from(sorted(APPS)), load=st.floats(0.05, 1.3),
       seed=st.integers(0, 2**16), n=st.integers(1, 600),
       step=st.integers(0, 8))
def test_fixed_frequency_matches_python(app, load, seed, n, step):
    """Any grid frequency: off nominal, setup's request leaves a
    transition in flight that the C loop applies."""
    context = make_context(APPS[app], seed, 200)
    freq = context.dvfs.frequencies[step]
    trace = Trace.generate_at_load(APPS[app], load, n, seed)
    native, python, sessions = run_both(
        trace, lambda: FixedFrequency(freq), context)
    assert sessions == 1
    assert native == python


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("load", [0.25, 0.6])
def test_static_oracle_matches_python(app, load):
    context = make_context(APPS[app], 5, 400)
    tune = Trace.generate_at_load(APPS[app], load, 400, 6)
    trace = Trace.generate_at_load(APPS[app], load + 0.1, 400, 5)

    def tuned():
        oracle = StaticOracle()
        oracle.tune(tune, context)
        return oracle

    native, python, sessions = run_both(trace, tuned, context)
    assert sessions == 1
    assert native == python


def test_long_run_flushes_its_buffers():
    """Thousands of segments: the segment log drains mid-run."""
    context = make_context(MASSTREE, 3, 200)
    trace = Trace.generate_at_load(MASSTREE, 0.2, 3000, 3)
    native, python, sessions = run_both(trace, FixedFrequency, context)
    assert sessions == 1
    assert len(native[11]) > 2048
    assert native == python


@pytest.mark.parametrize("make_scheme", [FixedFrequency, Rubik],
                         ids=["fixed", "rubik"])
def test_arrivals_before_the_clock_keep_the_python_loop(make_scheme):
    """The Python loop starts an arrival that predates the clock at the
    clock; the C loop does not, so such a trace keeps the Python loop
    (the span loop used to serve the first request from t = -1 ms)."""
    context = make_context(MASSTREE, 3, 200)
    trace = Trace(np.array([-1e-3, 2e-4, 5e-4]), np.full(3, 1e5),
                  np.full(3, 1e-5))
    native, python, sessions = run_both(trace, make_scheme, context)
    assert sessions == 0
    assert native == python
    assert native[0][0][4] == 0.0  # the first start, at the clock


class _Hooked(FixedFrequency):
    def on_completion(self, core, request) -> None:
        pass


@pytest.mark.parametrize("scheme_cls, engages", [
    (FixedFrequency, True), (StaticOracle, True), (_Hooked, False)])
def test_span_loop_engages_without_event_hooks(scheme_cls, engages):
    context = make_context(MASSTREE, 3, 200)
    trace = Trace.generate_at_load(MASSTREE, 0.5, 200, 3)
    scheme = scheme_cls()
    if isinstance(scheme, StaticOracle):
        scheme.tune(trace, context)
    native, python, sessions = run_both(
        trace, lambda: scheme, context)
    assert sessions == int(engages)
    assert native == python
