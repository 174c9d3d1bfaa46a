"""Tests for the server harness and RunResult metrics."""

import numpy as np
import pytest

from repro.core.controller import Rubik
from repro.experiments.common import make_context
from repro.schemes.base import SchemeContext
from repro.schemes.fixed import FixedFrequency
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE

#: Events-per-request ceiling for a Rubik run: one arrival plus one
#: completion per request and nothing else (DVFS transitions apply
#: lazily and consume no simulator events).
EVENTS_PER_REQUEST_BUDGET = 2.05


def run(n=1000, load=0.5, seed=0, **kw):
    trace = Trace.generate_at_load(MASSTREE, load, n, seed)
    return run_trace(trace, FixedFrequency(),
                     SchemeContext(latency_bound_s=1e-3), **kw)


class TestRunResult:
    def test_all_requests_complete(self):
        res = run(n=500)
        assert len(res.requests) == 500
        assert all(r.finish_time is not None for r in res.requests)

    def test_warmup_excluded_from_metrics(self):
        res = run(n=1000)
        assert len(res.measured()) == 1000 - res.warmup
        assert res.warmup > 0

    def test_explicit_warmup(self):
        res = run(n=500, warmup=100)
        assert res.warmup == 100

    def test_warmup_larger_than_run_clamped(self):
        res = run(n=50, warmup=500)
        assert res.warmup == 49

    def test_tail_latency_positive(self):
        res = run()
        assert res.tail_latency() > 0

    def test_violation_rate_bounds(self):
        res = run()
        assert res.violation_rate(0.0) == 1.0
        assert res.violation_rate(1e9) == 0.0

    def test_energy_per_request(self):
        res = run(n=500)
        assert res.energy_per_request_j == pytest.approx(
            res.energy_j / 500)

    def test_mean_power(self):
        res = run()
        assert res.mean_core_power_w == pytest.approx(
            res.energy_j / res.duration_s)

    def test_service_times_positive(self):
        res = run()
        assert np.all(res.service_times() > 0)

    def test_no_transitions_for_fixed(self):
        res = run()
        assert res.dvfs_transitions <= 1  # possibly one initial change

    def test_utilization_close_to_load(self):
        res = run(n=3000, load=0.5)
        assert res.utilization == pytest.approx(0.5, abs=0.06)

    def test_segment_log_opt_in(self):
        assert run(n=100).segment_log is None
        assert run(n=100, log_segments=True).segment_log

    def test_rubik_run_stays_within_event_budget(self):
        """Event churn: per-transition (or other per-request) heap
        traffic creeping back in trips the budget."""
        n = 1200
        trace = Trace.generate_at_load(MASSTREE, 0.5, n, 21)
        res = run_trace(trace, Rubik(), make_context(MASSTREE, 21, n))
        assert 0 < res.events_processed <= EVENTS_PER_REQUEST_BUDGET * n, (
            f"event churn crept back in: {res.events_processed} events "
            f"for {n} requests")
