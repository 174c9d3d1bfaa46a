"""Tests for the Pegasus feedback baseline."""

import pytest

from repro.experiments.common import make_context
from repro.schemes.pegasus import Pegasus
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE


class TestPegasus:
    def test_starts_at_max(self):
        ctx = make_context(MASSTREE, 5, 2000)
        trace = Trace.generate_at_load(MASSTREE, 0.3, 2000, 5)
        run = run_trace(trace, Pegasus(), ctx, record_freq_history=True)
        assert run.freq_history[1][1] == ctx.dvfs.max_hz

    def test_steps_down_at_low_load(self):
        """With latency comfortably under the bound, the controller
        lowers frequency over time."""
        ctx = make_context(MASSTREE, 5, 6000)
        trace = Trace.generate_at_load(MASSTREE, 0.2, 6000, 5)
        scheme = Pegasus(adjust_period_s=0.2)
        run = run_trace(trace, scheme, ctx, record_freq_history=True)
        final_freqs = [f for t, f in run.freq_history if t > run.duration_s / 2]
        assert final_freqs and min(final_freqs) < ctx.dvfs.nominal_hz
        assert scheme.adjustments > 3

    def test_keeps_tail_reasonable(self):
        ctx = make_context(MASSTREE, 5, 6000)
        trace = Trace.generate_at_load(MASSTREE, 0.3, 6000, 5)
        run = run_trace(trace, Pegasus(adjust_period_s=0.2), ctx)
        # Feedback-only control tracks the bound loosely.
        assert run.tail_latency() <= ctx.latency_bound_s * 1.5

    def test_coarse_adaptation_slower_than_rubik(self):
        """Pegasus adjusts orders of magnitude less often than Rubik."""
        from repro.core.controller import Rubik

        ctx = make_context(MASSTREE, 5, 4000)
        trace = Trace.generate_at_load(MASSTREE, 0.3, 4000, 5)
        peg_run = run_trace(trace, Pegasus(adjust_period_s=0.2), ctx)
        rub_run = run_trace(trace, Rubik(), ctx)
        assert peg_run.dvfs_transitions < rub_run.dvfs_transitions / 10

    def test_validation(self):
        with pytest.raises(ValueError):
            Pegasus(window_s=0)
        with pytest.raises(ValueError):
            Pegasus(step_down_margin=2.0)

    @pytest.mark.parametrize("name", ["window_s", "adjust_period_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_window_and_period(self, name, value):
        with pytest.raises(ValueError, match=name):
            Pegasus(**{name: value})


class TestPegasusPowerTelemetry:
    def test_power_log_records_window_means(self):
        from repro.experiments.common import make_context
        from repro.sim.server import run_trace
        from repro.sim.trace import Trace
        from repro.workloads.apps import MASSTREE

        ctx = make_context(MASSTREE, 5, 6000)
        trace = Trace.generate_at_load(MASSTREE, 0.3, 6000, 5)
        scheme = Pegasus(adjust_period_s=0.2)
        run = run_trace(trace, scheme, ctx)
        # One power sample per adjustment, all positive and bounded by
        # the run's own extremes.
        assert len(scheme.power_log) == scheme.adjustments
        assert scheme.power_log
        times = [t for t, _ in scheme.power_log]
        assert times == sorted(times)
        for _, watts in scheme.power_log:
            assert 0.0 < watts < 50.0

    def test_midrun_flushes_do_not_perturb_energy(self):
        """The flush-hook contract: Pegasus's mid-run meter reads must
        leave the final energy bitwise-identical to a scheme-free run's
        accounting invariants (energy = sum of state components)."""
        from repro.experiments.common import make_context
        from repro.sim.server import run_trace
        from repro.sim.trace import Trace
        from repro.workloads.apps import MASSTREE

        ctx = make_context(MASSTREE, 5, 3000)
        trace = Trace.generate_at_load(MASSTREE, 0.3, 3000, 5)
        run = run_trace(trace, Pegasus(adjust_period_s=0.2), ctx)
        assert run.energy_j == pytest.approx(
            run.active_energy_j + run.idle_energy_j, rel=1e-12)
