"""Tests for the request demand/progress model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.request import Request


def make_request(cycles=2.4e6, mem=1e-4):
    return Request(rid=0, arrival_time=0.0, compute_cycles=cycles,
                   memory_time_s=mem)


class TestValidation:
    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, -1.0, 0.0)

    def test_rejects_zero_demand(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, 0.0, 0.0)

    def test_memory_only_request_allowed(self):
        r = Request(0, 0.0, 0.0, 1e-3)
        assert r.service_time_at(1e9) == pytest.approx(1e-3)


class TestServiceTimes:
    def test_service_time_formula(self):
        r = make_request(cycles=2.4e6, mem=1e-4)
        # 2.4e6 cycles at 2.4 GHz = 1 ms, plus 0.1 ms memory
        assert r.service_time_at(2.4e9) == pytest.approx(1.1e-3)

    def test_memory_invariant_to_frequency(self):
        r = make_request(cycles=0.0, mem=1e-3)
        assert r.service_time_at(1e9) == r.service_time_at(3e9)

    def test_compute_scales_inversely(self):
        r = make_request(cycles=2e6, mem=0.0)
        assert r.service_time_at(1e9) == pytest.approx(
            2 * r.service_time_at(2e9))

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            make_request().service_time_at(0.0)


class TestProgress:
    def test_advance_to_completion(self):
        r = make_request()
        total = r.service_time_at(2e9)
        r.advance(total, 2e9)
        assert r.done

    def test_partial_progress(self):
        r = make_request()
        total = r.service_time_at(2e9)
        r.advance(total / 2, 2e9)
        assert r.progress == pytest.approx(0.5)
        assert not r.done

    def test_remaining_time_after_partial(self):
        r = make_request()
        total = r.service_time_at(2e9)
        r.advance(total / 2, 2e9)
        assert r.remaining_time_at(2e9) == pytest.approx(total / 2)

    def test_frequency_change_preserves_total_demand(self):
        """Half at f1 then remaining at f2 == proportional split."""
        r = make_request(cycles=2e6, mem=1e-3)
        t1 = r.service_time_at(1e9)
        r.advance(t1 / 2, 1e9)  # half the demand done
        rem = r.remaining_time_at(2e9)
        assert rem == pytest.approx(r.service_time_at(2e9) / 2)

    def test_advance_clamps_at_one(self):
        r = make_request()
        r.advance(100.0, 1e9)
        assert r.progress == 1.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            make_request().advance(-1.0, 1e9)

    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=0.5e9, max_value=3.4e9),
           st.floats(min_value=0.5e9, max_value=3.4e9))
    @settings(max_examples=50, deadline=None)
    def test_split_execution_invariant(self, frac, f1, f2):
        """Executing fraction p at f1 then the rest at f2 always sums to
        p*T(f1) + (1-p)*T(f2)."""
        r = make_request(cycles=1e6, mem=2e-4)
        t1 = frac * r.service_time_at(f1)
        r.advance(t1, f1)
        t2 = r.remaining_time_at(f2)
        expected = (frac * r.service_time_at(f1)
                    + (1 - frac) * r.service_time_at(f2))
        assert t1 + t2 == pytest.approx(expected, rel=1e-9)


class TestMetrics:
    def test_response_time(self):
        r = make_request()
        r.finish_time = 1.5
        assert r.response_time == pytest.approx(1.5)

    def test_response_requires_finish(self):
        with pytest.raises(ValueError):
            _ = make_request().response_time

    def test_queueing_time(self):
        r = make_request()
        r.start_time = 0.3
        assert r.queueing_time == pytest.approx(0.3)

    def test_queueing_requires_start(self):
        with pytest.raises(ValueError):
            _ = make_request().queueing_time
