"""Tests for the DVFS domain state machine (lazily-applied transitions)."""

import pytest

from repro.config import DvfsConfig
from repro.sim.dvfs import DvfsDomain
from repro.sim.engine import Simulator

GRID = (1e9, 2e9, 3e9)


def make_domain(latency=0.0, initial=2e9, on_retarget=None,
                record_history=False):
    sim = Simulator()
    cfg = DvfsConfig(frequencies=GRID, transition_latency_s=latency,
                     nominal_hz=2e9)
    return sim, DvfsDomain(sim, cfg, initial, on_retarget,
                           record_history=record_history)


class TestImmediateTransitions:
    def test_zero_latency_applies_immediately(self):
        sim, dom = make_domain(latency=0.0)
        dom.request(3e9)
        assert dom.current_hz == 3e9

    def test_no_op_same_frequency(self):
        sim, dom = make_domain()
        dom.request(2e9)
        assert dom.transitions == 0

    def test_rejects_off_grid(self):
        sim, dom = make_domain()
        with pytest.raises(ValueError):
            dom.request(1.5e9)

    def test_rejects_off_grid_initial(self):
        sim = Simulator()
        cfg = DvfsConfig(frequencies=GRID, nominal_hz=2e9)
        with pytest.raises(ValueError):
            DvfsDomain(sim, cfg, 9e9)


class TestDelayedTransitions:
    def test_takes_effect_after_latency(self):
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        assert dom.current_hz == 2e9  # still old during transition
        dom.settle()
        assert dom.current_hz == 3e9
        assert sim.now == pytest.approx(4e-6)

    def test_applies_lazily_at_clock_reads(self):
        """No event needed: once the clock passes the apply time, reads
        see the new frequency."""
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        seen = []
        sim.schedule(1e-6, lambda: seen.append(dom.current_hz))
        sim.schedule(4e-6, lambda: seen.append(dom.current_hz))
        sim.schedule(9e-6, lambda: seen.append(dom.current_hz))
        sim.run()
        # At exactly the apply time the change is visible (FREQ_CHANGE
        # used to fire before same-timestamp events).
        assert seen == [2e9, 3e9, 3e9]

    def test_latched_target_runs_after_in_flight(self):
        """A request mid-transition starts after the current one lands."""
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        dom.request(1e9)  # latched
        dom.settle()
        assert dom.current_hz == 1e9
        # two transitions: 2->3 at 4us, 3->1 at 8us
        assert dom.transitions == 2
        assert sim.now == pytest.approx(8e-6)

    def test_latest_latch_wins(self):
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        dom.request(1e9)
        dom.request(2e9)  # replaces the latched 1 GHz... but 2 GHz is
        dom.settle()       # where the in-flight started from
        assert dom.current_hz == 2e9

    def test_effective_target(self):
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        assert dom.effective_target() == 3e9
        dom.request(1e9)
        assert dom.effective_target() == 1e9

    def test_redundant_request_ignored(self):
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        dom.request(3e9)
        dom.settle()
        assert dom.transitions == 1

    def test_planned_transitions(self):
        sim, dom = make_domain(latency=4e-6)
        assert dom.planned_transitions() == ()
        dom.request(3e9)
        assert dom.planned_transitions() == ((4e-6, 3e9),)
        dom.request(1e9)
        assert dom.planned_transitions() == ((4e-6, 3e9), (8e-6, 1e9))

    def test_planned_transitions_skips_redundant_latch(self):
        """A latch equal to the in-flight target never applies."""
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        dom.request(1e9)
        dom.request(3e9)  # back to the in-flight target
        assert dom.planned_transitions() == ((4e-6, 3e9),)
        dom.settle()
        assert dom.transitions == 1

    def test_late_request_counts_from_request_time(self):
        """A request issued mid-run applies latency seconds later."""
        sim, dom = make_domain(latency=4e-6)
        sim.schedule(10e-6, lambda: dom.request(3e9))
        sim.run()
        assert dom.current_hz == 2e9
        dom.settle()
        assert sim.now == pytest.approx(14e-6)
        assert dom.current_hz == 3e9

    def test_settle_noop_when_idle(self):
        sim, dom = make_domain(latency=4e-6)
        dom.settle()
        assert sim.now == 0.0


class TestCallbacksAndHistory:
    def test_on_retarget_called(self):
        calls = []
        sim, dom = make_domain(latency=4e-6,
                               on_retarget=lambda: calls.append(sim.now))
        dom.request(3e9)
        assert calls == [0.0]
        dom.request(3e9)  # redundant: no plan change, no callback
        assert calls == [0.0]
        dom.request(1e9)  # latched: the plan changed
        assert calls == [0.0, 0.0]

    def test_unaccounted_boundaries_tracked_for_consumer(self):
        sim, dom = make_domain(latency=4e-6, on_retarget=lambda: None)
        dom.request(3e9)
        dom.settle()
        assert dom.take_unaccounted() == [(4e-6, 3e9)]
        assert dom.take_unaccounted() == []

    def test_no_boundary_tracking_without_consumer(self):
        sim, dom = make_domain(latency=4e-6)
        dom.request(3e9)
        dom.settle()
        assert dom.take_unaccounted() == []

    def test_history_off_by_default(self):
        sim, dom = make_domain(latency=0.0)
        dom.request(3e9)
        assert dom.history is None
        assert dom.transitions == 1  # the counter is always maintained

    def test_history_records_initial_and_changes(self):
        sim, dom = make_domain(latency=0.0, record_history=True)
        dom.request(3e9)
        dom.request(1e9)
        freqs = [f for _, f in dom.history]
        assert freqs == [2e9, 3e9, 1e9]

    def test_history_times_with_latency(self):
        sim, dom = make_domain(latency=1e-6, record_history=True)
        dom.request(3e9)
        dom.settle()
        assert dom.history[-1][0] == pytest.approx(1e-6)

    def test_history_timestamps_apply_time_even_when_synced_late(self):
        """A lazily-applied change is logged at its apply time, not at
        the clock read that surfaced it."""
        sim, dom = make_domain(latency=1e-6, record_history=True)
        dom.request(3e9)
        sim.schedule(5e-6, lambda: dom.current_hz)
        sim.run()
        assert dom.history[-1] == (pytest.approx(1e-6), 3e9)
