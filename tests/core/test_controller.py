"""Tests for the Rubik controller: frequency selection and end-to-end
behaviour (the paper's core claims at unit scale)."""

import math

import numpy as np
import pytest

from repro.config import DvfsConfig
from repro.core._native import build
from repro.core.controller import Rubik
from repro.core.table_cache import TABLE_CACHE
from repro.experiments.common import make_context
from repro.schemes.base import SchemeContext
from repro.schemes.fixed import FixedFrequency
from repro.schemes.replay import replay
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE, SPECJBB


def small_trace(app=MASSTREE, load=0.4, n=2500, seed=3):
    return Trace.generate_at_load(app, load, n, seed)


class TestFrequencyPolicy:
    def test_starts_at_max(self):
        """Safe before the demand model has data."""
        ctx = make_context(MASSTREE, 3, 2000)
        rubik = Rubik()
        trace = small_trace(n=2000)
        run = run_trace(trace, rubik, ctx, record_freq_history=True)
        # The controller's first request (right after the domain's
        # nominal start entry) is the grid max.
        assert run.freq_history[1][1] == ctx.dvfs.max_hz
        assert run.freq_history[1][0] <= ctx.dvfs.transition_latency_s

    def test_parks_at_min_when_idle(self):
        ctx = make_context(MASSTREE, 3, 2000)
        rubik = Rubik()
        run = run_trace(small_trace(load=0.05, n=500), rubik, ctx,
                        record_freq_history=True)
        # At 5% load, the controller should spend most wall time parked.
        hist = {f: v for f, v in run.freq_history}
        assert ctx.dvfs.min_hz in [f for _, f in run.freq_history]

    def test_update_period_respected(self):
        rubik = Rubik(update_period_s=0.05)
        ctx = make_context(MASSTREE, 3, 2000)
        run = run_trace(small_trace(n=2000), rubik, ctx)
        duration = run.duration_s
        assert rubik.table_updates <= duration / 0.05 + 2

    def test_rejects_bad_period(self):
        # NaN fails every comparison, so a `<= 0` check lets it through.
        for period in (0.0, math.nan):
            with pytest.raises(ValueError):
                Rubik(update_period_s=period)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(num_rows=2.5), "num_rows"),
        (dict(max_explicit=math.nan), "max_explicit"),
        (dict(num_rows=0), "num_rows"),
        (dict(profiler_window=100.5), "window"),
    ])
    def test_rejects_bad_sizes(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            Rubik(**kwargs)

    def test_name_reflects_feedback(self):
        assert Rubik().name == "Rubik"
        assert "No Feedback" in Rubik(feedback=False).name


class TestTailGuarantee:
    @pytest.mark.parametrize("load", [0.3, 0.5])
    def test_meets_bound_masstree(self, load):
        """Rubik's central claim: tail within the bound (<=5% violations,
        plus slack for finite-sample noise)."""
        ctx = make_context(MASSTREE, 7, 4000)
        trace = Trace.generate_at_load(MASSTREE, load, 4000, 7)
        run = run_trace(trace, Rubik(), ctx)
        assert run.violation_rate(ctx.latency_bound_s) <= 0.07

    def test_meets_bound_high_variability(self):
        """specjbb's heavy-tailed demands are the hard case."""
        ctx = make_context(SPECJBB, 7, 6000)
        trace = Trace.generate_at_load(SPECJBB, 0.4, 6000, 7)
        run = run_trace(trace, Rubik(), ctx)
        assert run.violation_rate(ctx.latency_bound_s) <= 0.07

    def test_saves_power_vs_fixed(self):
        ctx = make_context(MASSTREE, 7, 4000)
        trace = Trace.generate_at_load(MASSTREE, 0.3, 4000, 7)
        rubik = run_trace(trace, Rubik(), ctx)
        fixed = run_trace(trace, FixedFrequency(), ctx)
        assert rubik.mean_core_power_w < fixed.mean_core_power_w * 0.8

    def test_no_feedback_is_conservative(self):
        """Without the PI trimmer, Rubik's tail sits below the bound
        (paper Fig. 9: conservative approximations)."""
        ctx = make_context(MASSTREE, 7, 4000)
        trace = Trace.generate_at_load(MASSTREE, 0.4, 4000, 7)
        no_fb = run_trace(trace, Rubik(feedback=False), ctx)
        assert no_fb.tail_latency() <= ctx.latency_bound_s * 1.02

    def test_feedback_saves_more_than_no_feedback(self):
        ctx = make_context(MASSTREE, 7, 4000)
        trace = Trace.generate_at_load(MASSTREE, 0.4, 4000, 7)
        with_fb = run_trace(trace, Rubik(), ctx)
        no_fb = run_trace(trace, Rubik(feedback=False), ctx)
        assert with_fb.energy_j <= no_fb.energy_j * 1.02


class TestAdaptation:
    def test_reacts_to_load_step(self):
        """Frequencies after a 30->60% step are higher than before
        (Fig. 1b behaviour) within a short window."""
        from repro.sim.arrivals import LoadSchedule

        app = MASSTREE
        ctx = make_context(app, 5, 4000)
        schedule = LoadSchedule.from_loads(
            [(0.0, 0.3), (0.5, 0.6)], app.saturation_qps)
        trace = Trace.generate(app, schedule, 4000, 5)
        run = run_trace(trace, Rubik(), ctx, record_freq_history=True)
        hist = np.array(run.freq_history)
        before = hist[(hist[:, 0] > 0.2) & (hist[:, 0] < 0.5)][:, 1]
        after = hist[(hist[:, 0] > 0.6) & (hist[:, 0] < 0.9)][:, 1]
        assert after.mean() > before.mean()

    def test_application_agnostic(self):
        """Rubik never reads the app profile or request hints."""
        ctx = SchemeContext(latency_bound_s=1e-3, app=None)
        trace = small_trace(n=1500)
        run = run_trace(trace, Rubik(), ctx)  # app=None works fine
        assert len(run.requests) == 1500

    def test_model_tracks_demand_drift(self):
        """If demands double mid-run, the profiler window adapts and the
        tail is still respected afterwards."""
        app = MASSTREE
        ctx = make_context(app, 9, 3000)
        t1 = Trace.generate_at_load(app, 0.35, 1500, 9)
        t2 = Trace.generate_at_load(app, 0.35, 1500, 10)
        shift = t1.arrivals[-1] + 1e-3
        merged = Trace(
            np.concatenate([t1.arrivals, t2.arrivals + shift]),
            np.concatenate([t1.compute_cycles, t2.compute_cycles * 1.5]),
            np.concatenate([t1.memory_time_s, t2.memory_time_s]),
        )
        run = run_trace(merged, Rubik(), ctx)
        late = [r for r in run.requests[-700:]]
        lats = np.array([r.response_time for r in late])
        # Inflated demands make the original bound harder; Rubik should
        # keep the overwhelming majority under 1.5x bound.
        assert np.mean(lats > ctx.latency_bound_s * 1.5) < 0.05


def _result_fields(run):
    """Every RunResult field, floats compared exactly."""
    cols = run.completions
    return ([col.tolist() for col in (cols.arrival, cols.start, cols.finish,
                                      cols.cycles, cols.memory)],
            run.warmup, run.duration_s, run.energy_j, run.active_energy_j,
            run.idle_energy_j, run.busy_time_s, run.utilization,
            run.busy_freq_hist, run.dvfs_transitions, run.freq_history,
            run.events_processed)


class TestReuse:
    @pytest.mark.parametrize("path", [
        "kernel",
        pytest.param("native", marks=[
            pytest.mark.native,
            pytest.mark.skipif(not build.available(),
                               reason="native library unavailable")]),
    ])
    def test_reused_controller_matches_a_fresh_one(self, path,
                                                   monkeypatch):
        """A controller reused for a second trace starts it from fresh
        learned state (profiler window, tables, refresh clock) and fresh
        per-run counters, so the run and its counters equal a fresh
        controller's. Keeping the first run's clock, it refreshed no
        table in the whole second run."""
        if path == "kernel":  # hide the library: the Python kernel
            monkeypatch.setattr(build, "load_library", lambda: None)
        ctx = make_context(MASSTREE, 3, 3000)
        first, second = (Trace.generate_at_load(MASSTREE, 0.5, 3000, seed)
                         for seed in (3, 4))
        reused = Rubik()
        run_trace(first, reused, ctx)
        assert reused.table_updates > 0
        # Both runs of the second trace start from an empty table cache,
        # so their cache hits and misses compare too.
        TABLE_CACHE.clear()
        again = run_trace(second, reused, ctx, record_freq_history=True)
        fresh = Rubik()
        TABLE_CACHE.clear()
        want = run_trace(second, fresh, ctx, record_freq_history=True)
        assert reused.decision_path == fresh.decision_path == path
        assert reused.table_updates == fresh.table_updates > 0
        assert reused.refresh_stats == fresh.refresh_stats
        assert _result_fields(again) == _result_fields(want)
