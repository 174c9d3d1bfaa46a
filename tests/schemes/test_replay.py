"""Tests for analytic replay (the Lindley recurrence engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NOMINAL_FREQUENCY_HZ
from repro.schemes.replay import lindley_finish_times, replay
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE


def brute_force_finish(arrivals, service):
    finish = []
    prev = -np.inf
    for a, s in zip(arrivals, service):
        start = max(a, prev)
        prev = start + s
        finish.append(prev)
    return np.array(finish)


class TestLindley:
    def test_no_queueing(self):
        arr = np.array([0.0, 10.0, 20.0])
        svc = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(lindley_finish_times(arr, svc),
                                   [1.0, 11.0, 21.0])

    def test_full_queueing(self):
        arr = np.zeros(3)
        svc = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(lindley_finish_times(arr, svc),
                                   [1.0, 3.0, 6.0])

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.01, max_value=10)), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, pairs):
        arr = np.sort(np.array([a for a, _ in pairs]))
        svc = np.array([s for _, s in pairs])
        np.testing.assert_allclose(
            lindley_finish_times(arr, svc),
            brute_force_finish(arr, svc), rtol=1e-12)


class TestReplay:
    def test_scalar_frequency_broadcast(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 200, seed=0)
        rep = replay(trace, 2.4e9)
        assert len(rep.response_times) == 200
        assert np.all(rep.freqs_hz == 2.4e9)

    def test_per_request_frequencies(self):
        trace = Trace.generate_at_load(MASSTREE, 0.3, 100, seed=0)
        freqs = np.where(np.arange(100) % 2 == 0, 2.4e9, 0.8e9)
        rep = replay(trace, freqs)
        assert set(np.unique(rep.freqs_hz)) == {0.8e9, 2.4e9}

    def test_higher_frequency_lower_latency(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 500, seed=1)
        slow = replay(trace, 1.2e9)
        fast = replay(trace, 3.4e9)
        assert fast.tail_latency() < slow.tail_latency()

    def test_higher_frequency_higher_power(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 500, seed=1)
        slow = replay(trace, 1.2e9)
        fast = replay(trace, 3.4e9)
        assert fast.mean_core_power_w > slow.mean_core_power_w

    def test_rejects_bad_frequency(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 10, seed=0)
        with pytest.raises(ValueError):
            replay(trace, 0.0)

    def test_energy_includes_idle_sleep(self):
        trace = Trace.generate_at_load(MASSTREE, 0.1, 100, seed=0)
        rep = replay(trace, 2.4e9)
        assert rep.total_energy_j > float(rep.busy_energy_j.sum())

    def test_violation_rate(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 500, seed=0)
        rep = replay(trace, 2.4e9)
        bound = rep.tail_latency(95)
        assert rep.violation_rate(bound) == pytest.approx(0.05, abs=0.01)
