"""Tests for trace generation, determinism, and sim/replay equivalence."""

import numpy as np
import pytest

from repro.config import NOMINAL_FREQUENCY_HZ
from repro.schemes.base import SchemeContext
from repro.schemes.fixed import FixedFrequency
from repro.schemes.replay import replay, service_times
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE, SHORE


class TestGeneration:
    def test_default_request_count_from_table3(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, seed=0)
        assert len(trace) == MASSTREE.num_requests

    def test_deterministic(self):
        a = Trace.generate_at_load(MASSTREE, 0.5, 100, seed=1)
        b = Trace.generate_at_load(MASSTREE, 0.5, 100, seed=1)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.compute_cycles, b.compute_cycles)

    def test_seeds_differ(self):
        a = Trace.generate_at_load(MASSTREE, 0.5, 100, seed=1)
        b = Trace.generate_at_load(MASSTREE, 0.5, 100, seed=2)
        assert not np.array_equal(a.arrivals, b.arrivals)

    def test_demands_load_invariant(self):
        """Same seed at different loads -> identical demand columns (the
        per-seed latency-bound methodology relies on this)."""
        a = Trace.generate_at_load(MASSTREE, 0.3, 100, seed=1)
        b = Trace.generate_at_load(MASSTREE, 0.7, 100, seed=1)
        np.testing.assert_array_equal(a.compute_cycles, b.compute_cycles)
        np.testing.assert_array_equal(a.memory_time_s, b.memory_time_s)

    def test_predicted_cycles_present(self):
        trace = Trace.generate_at_load(SHORE, 0.5, 100, seed=1)
        assert trace.predicted_cycles is not None
        assert len(trace.predicted_cycles) == 100

    def test_perfect_hints_equal_truth(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 200, seed=1)
        # masstree hint_quality=0.9 < 1, so not exactly equal; correlation
        # must be very high though.
        corr = np.corrcoef(np.log(trace.predicted_cycles),
                           np.log(trace.compute_cycles))[0, 1]
        assert corr > 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(np.array([1.0]), np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Trace(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            Trace(np.array([2.0, 1.0]), np.ones(2), np.ones(2))

    def test_columns_stored_as_float64(self):
        """A narrower or integer column is widened; a float64 column is
        kept as the very array passed in."""
        trace = Trace.generate_at_load(MASSTREE, 0.5, 50, seed=1)
        narrow = Trace(trace.arrivals.astype(np.float32),
                       trace.compute_cycles.astype(np.float32),
                       np.zeros(50, dtype=np.int64),
                       trace.predicted_cycles.astype(np.float32))
        for column in (narrow.arrivals, narrow.compute_cycles,
                       narrow.memory_time_s, narrow.predicted_cycles):
            assert column.dtype == np.float64
        np.testing.assert_array_equal(
            narrow.compute_cycles,
            trace.compute_cycles.astype(np.float32).astype(np.float64))
        same = Trace(trace.arrivals, trace.compute_cycles,
                     trace.memory_time_s, trace.predicted_cycles)
        assert same.arrivals is trace.arrivals
        assert same.compute_cycles is trace.compute_cycles
        assert same.memory_time_s is trace.memory_time_s
        assert same.predicted_cycles is trace.predicted_cycles
        unset = Trace(trace.arrivals, trace.compute_cycles,
                      trace.memory_time_s)
        assert unset.predicted_cycles is not unset.compute_cycles
        np.testing.assert_array_equal(unset.predicted_cycles,
                                      trace.compute_cycles)

    def test_to_requests(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 10, seed=1)
        reqs = trace.to_requests()
        assert len(reqs) == 10
        assert reqs[3].compute_cycles == trace.compute_cycles[3]
        # Fresh objects per call (replays are independent).
        assert trace.to_requests()[0] is not reqs[0]

    def test_service_times(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 10, seed=1)
        svc = service_times(trace, 2.4e9)
        expected = trace.compute_cycles / 2.4e9 + trace.memory_time_s
        np.testing.assert_allclose(svc, expected)


class TestSimReplayEquivalence:
    """The event simulator and the Lindley replay must agree exactly at a
    fixed frequency — a strong cross-check of both substrates."""

    @pytest.mark.parametrize("load", [0.2, 0.5, 0.8])
    def test_latencies_match(self, load):
        trace = Trace.generate_at_load(MASSTREE, load, 1500, seed=4)
        sim_run = run_trace(trace, FixedFrequency(),
                            SchemeContext(latency_bound_s=1.0))
        rep = replay(trace, NOMINAL_FREQUENCY_HZ)
        sim_lats = np.array([r.response_time for r in sim_run.requests])
        np.testing.assert_allclose(sim_lats, rep.response_times, atol=1e-12)

    def test_energy_matches(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 1500, seed=4)
        sim_run = run_trace(trace, FixedFrequency(),
                            SchemeContext(latency_bound_s=1.0))
        rep = replay(trace, NOMINAL_FREQUENCY_HZ)
        assert sim_run.active_energy_j == pytest.approx(
            float(rep.busy_energy_j.sum()), rel=1e-9)

    def test_busy_time_matches(self):
        trace = Trace.generate_at_load(MASSTREE, 0.5, 1000, seed=4)
        sim_run = run_trace(trace, FixedFrequency(),
                            SchemeContext(latency_bound_s=1.0))
        rep = replay(trace, NOMINAL_FREQUENCY_HZ)
        assert sim_run.busy_time_s == pytest.approx(rep.busy_time_s,
                                                    rel=1e-9)
