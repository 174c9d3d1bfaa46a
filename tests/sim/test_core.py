"""Tests for the core execution model (service, DVFS, energy, batch)."""

import pytest

from repro.config import DvfsConfig
from repro.power.model import CorePowerModel, CoreState
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request

GRID = (1e9, 2e9, 4e9)
CFG = DvfsConfig(frequencies=GRID, transition_latency_s=0.0, nominal_hz=2e9)
PM = CorePowerModel()


def make_core(sim=None, **kw):
    sim = sim or Simulator()
    return sim, Core(sim, CFG, PM, **kw)


def req(rid=0, at=0.0, cycles=2e6, mem=0.0):
    return Request(rid=rid, arrival_time=at, compute_cycles=cycles,
                   memory_time_s=mem)


class TestBasicService:
    def test_single_request_latency(self):
        sim, core = make_core()
        r = req(cycles=2e6)  # 1 ms at 2 GHz
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.run()
        assert r.finish_time == pytest.approx(1e-3)
        assert core.completed == [r]

    def test_fifo_order(self):
        sim, core = make_core()
        r1, r2 = req(0), req(1, at=1e-4)
        sim.schedule(0.0, lambda: core.enqueue(r1))
        sim.schedule(1e-4, lambda: core.enqueue(r2))
        sim.run()
        assert [r.rid for r in core.completed] == [0, 1]
        # second waits for the first
        assert r2.start_time == pytest.approx(r1.finish_time)

    def test_queue_length(self):
        sim, core = make_core()
        sim.schedule(0.0, lambda: core.enqueue(req(0)))
        sim.schedule(0.0, lambda: core.enqueue(req(1)))
        sim.schedule(0.0, lambda: core.enqueue(req(2)))
        sim.run(max_events=3)
        assert core.queue_length == 3
        assert core.current is not None and len(core.queue) == 2

    def test_memory_time_included(self):
        sim, core = make_core()
        r = req(cycles=2e6, mem=5e-4)
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.run()
        assert r.finish_time == pytest.approx(1.5e-3)


class TestFrequencyChanges:
    def test_midflight_change_shortens_completion(self):
        sim, core = make_core()
        r = req(cycles=4e6)  # 2 ms at 2 GHz, 1 ms at 4 GHz
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.schedule(1e-3, lambda: core.request_frequency(4e9))
        sim.run()
        # 1 ms at 2 GHz does half the work; remaining half at 4 GHz: 0.5ms
        assert r.finish_time == pytest.approx(1.5e-3)

    def test_midflight_slowdown(self):
        sim, core = make_core()
        r = req(cycles=4e6)
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.schedule(1e-3, lambda: core.request_frequency(1e9))
        sim.run()
        assert r.finish_time == pytest.approx(1e-3 + 2e-3)

    def test_elapsed_visible_between_events(self):
        sim, core = make_core()
        r = req(cycles=4e6)
        probe = {}
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.schedule(1e-3,
                     lambda: probe.update(e=core.current_request_elapsed()))
        sim.run()
        assert probe["e"][0] == pytest.approx(2e6)  # half the cycles

    def test_elapsed_zero_when_idle(self):
        _, core = make_core()
        assert core.current_request_elapsed() == (0.0, 0.0)


class TestEnergyAccounting:
    def test_busy_and_idle_split(self):
        sim, core = make_core()
        r = req(cycles=2e6)  # 1 ms busy
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.schedule(2e-3, lambda: None)  # extend run to 2 ms
        sim.run()
        core.finalize()
        assert core.meter.busy_time_s == pytest.approx(1e-3)
        assert core.meter.total_time_s == pytest.approx(2e-3)
        assert core.meter.utilization == pytest.approx(0.5)

    def test_energy_matches_power_model(self):
        sim, core = make_core()
        r = req(cycles=2e6)
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.run()
        core.finalize()
        expected = PM.busy_power(2e9) * 1e-3
        assert core.meter.active_energy_j == pytest.approx(expected)

    def test_freq_residency(self):
        sim, core = make_core()
        r = req(cycles=4e6)
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.schedule(1e-3, lambda: core.request_frequency(4e9))
        sim.run()
        core.finalize()
        hist = core.meter.busy_frequency_histogram()
        assert hist[2e9] == pytest.approx(1e-3 / 1.5e-3)
        assert hist[4e9] == pytest.approx(0.5e-3 / 1.5e-3)

    def test_segment_log(self):
        sim, core = make_core(log_segments=True)
        r = req(cycles=2e6)
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.run()
        core.finalize()
        assert core.segment_log
        t0, t1, watts = core.segment_log[0]
        assert t1 > t0 and watts > 0


class TestListeners:
    def test_arrival_and_completion_hooks(self):
        sim, core = make_core()
        events = []

        class L:
            def on_arrival(self, c, r):
                events.append(("arr", r.rid, c.queue_length))

            def on_completion(self, c, r):
                events.append(("done", r.rid, c.queue_length))

        core.add_listener(L())
        sim.schedule(0.0, lambda: core.enqueue(req(0)))
        sim.run()
        assert events == [("arr", 0, 1), ("done", 0, 0)]

    def test_arrival_sees_new_request_in_queue(self):
        sim, core = make_core()
        seen = []

        class L:
            def on_arrival(self, c, r):
                seen.append([c.current.rid] + [p.rid for p in c.queue])

            def on_completion(self, c, r):
                pass

        core.add_listener(L())
        sim.schedule(0.0, lambda: core.enqueue(req(0)))
        sim.schedule(0.0, lambda: core.enqueue(req(1)))
        sim.run(max_events=2)
        assert seen == [[0], [0, 1]]


class FakeBatch:
    """Minimal BackgroundTask for testing."""

    def __init__(self, preferred=1e9):
        self.preferred = preferred
        self.run_time = 0.0
        self.profile = type("P", (), {"name": "fake"})()

    def preferred_frequency(self, dvfs):
        return self.preferred

    def run(self, duration_s, freq_hz):
        self.run_time += duration_s

    def mem_stall_frac(self, freq_hz):
        return 0.0


class TestBackgroundBatch:
    def test_batch_runs_when_idle(self):
        sim = Simulator()
        batch = FakeBatch()
        core = Core(sim, CFG, PM, background=batch)
        sim.schedule(2e-3, lambda: None)
        sim.run()
        core.finalize()
        assert batch.run_time == pytest.approx(2e-3)
        assert core.meter.batch_time_s == pytest.approx(2e-3)

    def test_batch_preempted_by_lc(self):
        sim = Simulator()
        batch = FakeBatch()
        core = Core(sim, CFG, PM, background=batch)
        r = req(cycles=1e6)  # 1 ms at batch's 1 GHz... frequency!
        sim.schedule(1e-3, lambda: core.enqueue(r))
        sim.run()
        core.finalize()
        # LC ran at the batch's 1 GHz (no scheme changed it): 1 ms
        assert r.finish_time == pytest.approx(2e-3)
        assert batch.run_time == pytest.approx(1e-3)

    def test_batch_resumes_at_preferred_freq(self):
        sim = Simulator()
        batch = FakeBatch(preferred=1e9)
        core = Core(sim, CFG, PM, background=batch)
        r = req(cycles=1e6)
        sim.schedule(0.0, lambda: core.enqueue(r))
        sim.schedule(0.0, lambda: core.request_frequency(4e9))
        sim.run()
        assert core.frequency_hz == 1e9  # back to batch preference

    def test_interference_charged_after_batch(self):
        sim = Simulator()
        batch = FakeBatch()
        charged = []

        def interference(interval, request):
            charged.append(interval)
            return 1e6  # extra cycles

        core = Core(sim, CFG, PM, background=batch,
                    interference_cycles=interference)
        r = req(cycles=1e6)
        sim.schedule(1e-3, lambda: core.enqueue(r))
        sim.run()
        assert charged == [pytest.approx(1e-3)]
        assert r.compute_cycles == pytest.approx(2e6)  # inflated

    def test_queued_handoff_unchanged_and_never_charged(self):
        """Regression for the completion->next-request handoff now
        routing through _begin_service: a queued request taking over the
        core back-to-back must start exactly at its predecessor's finish
        time and must NOT be charged interference (no batch interval ran
        in between) — the unified path must behave exactly like the old
        inlined one."""
        sim = Simulator()
        batch = FakeBatch()
        charged = []

        def interference(interval, request):
            charged.append((interval, request.rid))
            return 5e5

        core = Core(sim, CFG, PM, background=batch,
                    interference_cycles=interference)
        # Batch runs [0, 1ms); r1 arrives at 1 ms, r2 queues behind it.
        r1, r2 = req(0, cycles=1e6), req(1, at=1.1e-3, cycles=1e6)
        sim.schedule(1e-3, lambda: core.enqueue(r1))
        sim.schedule(1.1e-3, lambda: core.enqueue(r2))
        sim.run()
        core.finalize()
        # Only the first request after the batch interval is charged.
        assert [rid for _, rid in charged] == [0]
        assert r1.compute_cycles == pytest.approx(1.5e6)  # inflated
        assert r2.compute_cycles == pytest.approx(1e6)    # untouched
        # Handoff is seamless: r2 starts the instant r1 finishes.
        assert r2.start_time == pytest.approx(r1.finish_time)
        # The batch interval restarts only after the queue drains.
        assert batch.run_time == pytest.approx(1e-3)

    def test_handoff_after_new_batch_interval_charges_again(self):
        """If the queue drains and batch runs again, the next LC request
        is charged for the *new* interval — pinning that the unified
        _begin_service path keeps per-interval accounting."""
        sim = Simulator()
        batch = FakeBatch()
        charged = []
        core = Core(sim, CFG, PM, background=batch,
                    interference_cycles=lambda i, r: charged.append(i) or 0.0)
        sim.schedule(1e-3, lambda: core.enqueue(req(0, cycles=1e6)))
        # First request done at 2 ms (1 GHz batch freq); batch resumes,
        # then a second burst arrives at 3 ms.
        sim.schedule(3e-3, lambda: core.enqueue(req(1, cycles=1e6)))
        sim.run()
        core.finalize()
        assert charged == [pytest.approx(1e-3), pytest.approx(1e-3)]

    def test_no_interference_without_batch_interval(self):
        sim = Simulator()
        batch = FakeBatch()
        calls = []
        core = Core(sim, CFG, PM, background=batch,
                    interference_cycles=lambda i, r: calls.append(i) or 0.0)
        r1, r2 = req(0, cycles=1e6), req(1, at=1e-4, cycles=1e6)
        sim.schedule(1e-3, lambda: core.enqueue(r1))
        # r2 arrives while r1 in service: no batch interval in between.
        sim.schedule(1e-3 + 1e-4, lambda: core.enqueue(r2))
        sim.run()
        assert len(calls) == 1  # only the first request after batch
