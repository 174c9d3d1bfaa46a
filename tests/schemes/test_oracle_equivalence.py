"""The oracle searches choose exactly what a full replay per candidate
would choose.

``find_static_frequency`` and ``tune_adrenaline`` decide feasibility on
the tail alone and read energy from per-frequency columns;
``dynamic_oracle_schedule`` counts violations during its trial walk. The
references below are the earlier searches, kept as test code: a full
``replay`` per candidate, and the ``_propagate`` accept loop. The
properties compare them on random traces whose bounds sit exactly on, or
one ulp either side of, a tail or response time the search will meet,
where any change of float operations or of tie handling would show.

Adrenaline and DynamicOracle run their per-request loops in the native
library when it loads, and in numpy or Python otherwise; their
properties run once per path against the same references.
"""

import contextlib
from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_DVFS
from repro.core._native import build, kernel
from repro.power.model import DEFAULT_CORE_POWER
from repro.schemes import adrenaline, dynamic_oracle
from repro.schemes.adrenaline import (
    AdrenalineSetting,
    _classify,
    tune_adrenaline,
)
from repro.schemes.base import SchemeContext
from repro.schemes.dynamic_oracle import dynamic_oracle_schedule
from repro.schemes.replay import lindley_finish_times, meets_bound, replay
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.trace import Trace
from repro.workloads.apps import APPS

GRID = DEFAULT_DVFS.frequencies

#: The oracle searches' two paths: the native library's loops, and the
#: numpy/Python code that runs without it.
PATHS = [
    pytest.param("native", marks=[
        pytest.mark.native,
        pytest.mark.skipif(not build.available(),
                           reason="native library unavailable")]),
    "numpy",
]


def on_path(path):
    """Run the searches on ``path``: ``"numpy"`` forces
    ``build.load_library`` to None, as on a machine without ``cc``."""
    if path == "native":
        return contextlib.nullcontext()
    return mock.patch.object(build, "load_library", lambda: None)


# -- references: the searches as a full replay per candidate -----------


def reference_static_frequency(trace, bound_s, context):
    for f in context.dvfs.frequencies:
        result = replay(trace, f)
        if result.tail_latency(context.tail_percentile) <= bound_s:
            return f
    return context.dvfs.max_hz


def reference_tune_adrenaline(traces, context, threshold_quantiles,
                              bounds_s):
    pct = context.tail_percentile
    grid = context.dvfs.frequencies
    best = None
    for q in threshold_quantiles:
        threshold = float(np.quantile(traces[0].predicted_cycles, q))
        for bi, f_boost in enumerate(grid):
            for f_short in grid[: bi + 1]:
                results = []
                feasible = True
                for trace, bound in zip(traces, bounds_s):
                    boosted = _classify(trace, threshold)
                    freqs = np.where(boosted, f_boost, f_short)
                    result = replay(trace, freqs)
                    if result.tail_latency(pct) > bound:
                        feasible = False
                        break
                    results.append(result)
                if not feasible:
                    continue
                energy = float(np.mean(
                    [r.energy_per_request_j for r in results]))
                tail = float(np.max([r.tail_latency(pct) for r in results]))
                candidate = AdrenalineSetting(
                    threshold_cycles=threshold,
                    f_short_hz=float(f_short),
                    f_boost_hz=float(f_boost),
                    energy_per_request_j=energy,
                    tail_latency_s=tail,
                )
                if best is None or (candidate.energy_per_request_j
                                    < best.energy_per_request_j):
                    best = candidate
                break
    if best is None:
        f_max = context.dvfs.max_hz
        result = replay(traces[0], f_max)
        best = AdrenalineSetting(
            threshold_cycles=0.0,
            f_short_hz=f_max,
            f_boost_hz=f_max,
            energy_per_request_j=result.energy_per_request_j,
            tail_latency_s=result.tail_latency(pct),
        )
    return best


def _propagate(arr, C, M, freqs, finish, i, new_freq
               ) -> Tuple[List[Tuple[int, float]], int]:
    updates = []
    prev_finish = finish[i - 1] if i > 0 else -np.inf
    start = arr[i] if arr[i] > prev_finish else prev_finish
    new_f = start + C[i] / new_freq + M[i]
    updates.append((i, new_f))
    j = i + 1
    n = len(arr)
    prev = new_f
    while j < n:
        start = arr[j] if arr[j] > prev else prev
        cand = start + C[j] / freqs[j] + M[j]
        if cand == finish[j]:
            break
        updates.append((j, cand))
        prev = cand
        j += 1
    return updates, j


def reference_dynamic_schedule(trace, context, max_rounds):
    bound = context.latency_bound_s
    grid = context.dvfs.frequencies
    n = len(trace)
    budget = int((1.0 - context.tail_percentile / 100.0) * n)

    static_hz = reference_static_frequency(trace, bound, context)
    freqs = np.full(n, static_hz)
    service = trace.compute_cycles / freqs + trace.memory_time_s
    finish = lindley_finish_times(trace.arrivals, service)
    viol = int(np.sum(finish - trace.arrivals > bound))

    power_at = {f: DEFAULT_CORE_POWER.busy_power(f) for f in grid}
    grid_arr = np.asarray(grid, dtype=float)
    power_arr = np.array([power_at[f] for f in grid])

    arr_l = trace.arrivals.tolist()
    cyc_l = trace.compute_cycles.tolist()
    mem_l = trace.memory_time_s.tolist()
    finish_l = finish.tolist()
    freqs_l = freqs.tolist()

    for _ in range(max_rounds):
        freqs = np.asarray(freqs_l)
        steps = np.searchsorted(grid_arr, freqs)
        reducible = steps > 0
        lower_steps = np.maximum(steps - 1, 0)
        e_now = power_arr[steps] * trace.compute_cycles / freqs
        e_low = (power_arr[lower_steps] * trace.compute_cycles
                 / grid_arr[lower_steps])
        saving = e_now - e_low
        cand = np.flatnonzero(reducible & (saving > 0))
        if cand.size == 0:
            break
        order = cand[np.lexsort((-cand, -saving[cand]))]

        accepted, viol = reference_round(arr_l, cyc_l, mem_l, freqs_l,
                                         finish_l, order, grid, bound,
                                         budget, viol)
        if accepted == 0:
            break
    return np.asarray(freqs_l)


def reference_round(arr_l, cyc_l, mem_l, freqs_l, finish_l, order, grid,
                    bound, budget, viol) -> Tuple[int, int]:
    """One round of trial reductions in ``order``; updates ``freqs_l``
    and ``finish_l`` in place and returns (accepted, violations)."""
    step_of = {f: i for i, f in enumerate(grid)}
    accepted = 0
    for i in order.tolist():
        s = step_of[freqs_l[i]]
        if s == 0:
            continue
        lower = grid[s - 1]
        updates, _ = _propagate(arr_l, cyc_l, mem_l, freqs_l,
                                finish_l, i, lower)
        delta_viol = 0
        for j, new_f in updates:
            old_bad = finish_l[j] - arr_l[j] > bound
            new_bad = new_f - arr_l[j] > bound
            delta_viol += int(new_bad) - int(old_bad)
        if viol + delta_viol <= budget:
            for j, new_f in updates:
                finish_l[j] = new_f
            freqs_l[i] = lower
            viol += delta_viol
            accepted += 1
    return accepted, viol


# -- inputs: random traces, bounds on engineered ties ------------------


@st.composite
def traces(draw, max_requests=300):
    app = APPS[draw(st.sampled_from(sorted(APPS)))]
    n = draw(st.integers(1, max_requests))
    load = draw(st.floats(0.05, 1.2))
    seed = draw(st.integers(0, 2**16))
    return app, load, n, seed, Trace.generate_at_load(app, load, n, seed)


def _tied(draw, value: float) -> float:
    """``value`` itself, one of its float neighbours, or a bound well
    away from it (``value`` is a tail or response a search meets)."""
    kind = draw(st.sampled_from(("exact", "up", "down", "scaled")))
    if kind == "up":
        value = np.nextafter(value, np.inf)
    elif kind == "down":
        value = np.nextafter(value, -np.inf)
    elif kind == "scaled":
        value = value * draw(st.floats(0.3, 3.0))
    value = float(value)
    assume(np.isfinite(value) and value > 0)
    return value


def _two_level_tail(draw, trace, threshold, pct=95.0) -> float:
    """Exact tail of a random (f_short <= f_boost) replay of ``trace``."""
    bi = draw(st.integers(0, len(GRID) - 1))
    si = draw(st.integers(0, bi))
    freqs = np.where(_classify(trace, threshold), GRID[bi], GRID[si])
    return replay(trace, freqs).tail_latency(pct)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_static_frequency_matches_full_replays(data):
    _, _, _, _, trace = data.draw(traces())
    f = GRID[data.draw(st.integers(0, len(GRID) - 1))]
    bound = _tied(data.draw, replay(trace, f).tail_latency())
    context = SchemeContext(latency_bound_s=bound)
    assert (find_static_frequency(trace, bound, context)
            == reference_static_frequency(trace, bound, context))


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_adrenaline_setting_matches_full_replays(path, data):
    app, load, n, seed, trace = data.draw(traces(max_requests=200))
    training = [trace]
    if data.draw(st.booleans()):
        training.append(Trace.generate_at_load(app, load, n, seed + 1))
    quantiles = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                   max_size=2))
    threshold = float(np.quantile(trace.predicted_cycles, quantiles[0]))
    bounds = [_tied(data.draw, _two_level_tail(data.draw, t, threshold))
              for t in training]
    context = SchemeContext(latency_bound_s=bounds[0])
    with on_path(path):
        got = tune_adrenaline(training, context, quantiles, bounds)
    want = reference_tune_adrenaline(training, context, quantiles, bounds)
    for field in AdrenalineSetting.__dataclass_fields__:
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dynamic_schedule_matches_propagate_loop(path, data):
    _, _, _, _, trace = data.draw(traces())
    if data.draw(st.booleans()):
        f = GRID[data.draw(st.integers(0, len(GRID) - 1))]
        tie = float(data.draw(st.sampled_from(
            replay(trace, f).response_times.tolist())))
    else:
        threshold = float(np.quantile(trace.predicted_cycles,
                                      data.draw(st.floats(0.0, 1.0))))
        tie = _two_level_tail(data.draw, trace, threshold)
    context = SchemeContext(latency_bound_s=_tied(data.draw, tie))
    rounds = data.draw(st.integers(0, 8))
    with on_path(path):
        got = dynamic_oracle_schedule(trace, context, max_rounds=rounds)
    want = reference_dynamic_schedule(trace, context, rounds)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dynamic_round_matches_reference_round(path, data):
    """One round from a random schedule, with the bound on a response
    time the round's first trial produces, so the walk's violation flags
    meet exact ties."""
    _, _, n, _, trace = data.draw(traces(max_requests=120))
    steps = data.draw(st.lists(st.integers(0, len(GRID) - 1), min_size=n,
                               max_size=n))
    freqs = np.asarray([GRID[k] for k in steps])
    finish = lindley_finish_times(trace.arrivals,
                                  trace.compute_cycles / freqs
                                  + trace.memory_time_s)
    order = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
    order = order[:data.draw(st.integers(1, n))]
    first = next((i for i in order.tolist() if steps[i] > 0), None)
    assume(first is not None)
    arr_l = trace.arrivals.tolist()
    cyc_l = trace.compute_cycles.tolist()
    mem_l = trace.memory_time_s.tolist()
    updates, _ = _propagate(arr_l, cyc_l, mem_l, freqs.tolist(),
                            finish.tolist(), first, GRID[steps[first] - 1])
    j, new_f = data.draw(st.sampled_from(updates))
    bound = _tied(data.draw, new_f - arr_l[j])
    late = finish - trace.arrivals > bound
    viol = int(np.sum(late))
    budget = data.draw(st.sampled_from((n, viol, max(viol - 1, 0))))

    want_freqs, want_finish = freqs.tolist(), finish.tolist()
    want = reference_round(arr_l, cyc_l, mem_l, want_freqs, want_finish,
                           order, GRID, bound, budget, viol)
    if path == "native":
        walks = dynamic_oracle._NativeWalks(
            kernel.oracle_library(), trace, GRID, freqs, finish, late,
            bound, budget)
        got = walks.round(order), int(walks.viol[0])
        got_finish, got_bad = walks.finish, walks.bad
    else:
        walks = dynamic_oracle._ListWalks(trace, GRID, freqs, finish, late,
                                          bound, budget)
        got = walks.round(order), walks.viol
        got_finish, got_bad = np.asarray(walks.finish_l), walks.bad
    assert got == want
    assert np.array_equal(walks.freqs(), want_freqs)
    assert np.array_equal(got_finish, want_finish)
    assert np.array_equal(
        got_bad, np.asarray(want_finish) - trace.arrivals > bound)


@pytest.mark.parametrize("path", PATHS)
def test_each_path_runs_its_own_loops(path):
    """The native loops run exactly when the library loads."""
    trace = Trace.generate_at_load(APPS["masstree"], 0.4, 300, 3)
    context = SchemeContext(latency_bound_s=replay(
        trace, GRID[len(GRID) // 2]).tail_latency())
    calls = []

    def spy(cls, name):
        real = getattr(cls, name)

        def wrapper(self, *args):
            calls.append(cls.__name__)
            return real(self, *args)
        return mock.patch.object(cls, name, wrapper)

    with on_path(path), \
            spy(adrenaline._NativeCandidateReplays, "feasible_run"), \
            spy(dynamic_oracle._NativeWalks, "round"):
        tune_adrenaline([trace], context)
        dynamic_oracle_schedule(trace, context, max_rounds=2)
    assert bool(calls) == (path == "native")
    if calls:
        assert set(calls) == {"_NativeCandidateReplays", "_NativeWalks"}


# -- float32 input traces ----------------------------------------------


def _float32_copy(trace: Trace) -> Trace:
    return Trace(*(np.asarray(column, dtype=np.float32) for column in (
        trace.arrivals, trace.compute_cycles, trace.memory_time_s,
        trace.predicted_cycles)))


def test_static_frequency_on_float32_traces():
    """A float32 trace is stored as float64, so the search and a full
    replay compute the same floats; with bounds on exact tails, any
    rounding gap between them would pick another frequency."""
    wrong = []
    for seed in range(40):
        app = APPS[sorted(APPS)[seed % len(APPS)]]
        trace = _float32_copy(Trace.generate_at_load(app, 0.5, 200, seed))
        bound = replay(trace, GRID[seed % len(GRID)]).tail_latency()
        context = SchemeContext(latency_bound_s=bound)
        if (find_static_frequency(trace, bound, context)
                != reference_static_frequency(trace, bound, context)):
            wrong.append(seed)
    assert wrong == []


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", range(3))
def test_adrenaline_setting_on_float32_traces(path, seed):
    trace = _float32_copy(Trace.generate_at_load(APPS["masstree"], 0.4,
                                                 150, seed))
    threshold = float(np.quantile(trace.predicted_cycles, 0.8))
    boosted = _classify(trace, threshold)
    bound = replay(trace, np.where(boosted, GRID[-2 - seed],
                                   GRID[len(GRID) // 2])).tail_latency()
    context = SchemeContext(latency_bound_s=bound)
    with on_path(path):
        got = tune_adrenaline([trace], context, (0.8,), [bound])
    want = reference_tune_adrenaline([trace], context, (0.8,), [bound])
    for field in AdrenalineSetting.__dataclass_fields__:
        assert getattr(got, field) == getattr(want, field), field


# -- the tail-only check -----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_meets_bound_equals_percentile_comparison(data):
    pool = data.draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6))
    response = np.array(data.draw(st.lists(st.sampled_from(pool),
                                           min_size=1, max_size=60)))
    pct = data.draw(st.floats(0.0, 100.0, exclude_min=True,
                              exclude_max=True))
    anchor = data.draw(st.sampled_from(
        response.tolist() + [float(np.percentile(response, pct))]))
    bound = data.draw(st.sampled_from((
        anchor, np.nextafter(anchor, np.inf), np.nextafter(anchor, -np.inf))))
    assert meets_bound(response, bound, pct) == bool(
        np.percentile(response, pct) <= bound)
