"""Tests for interference, colocation schemes, the colocated server, and
the datacenter aggregation."""

import math

import numpy as np
import pytest

from repro.coloc.batch import generate_mixes
from repro.coloc.datacenter import (
    batch_server_power,
    batch_server_throughput,
    compare_datacenters,
    segregated_server,
)
from repro.coloc.interference import MicroarchInterference
from repro.coloc.server import (
    COLOC_SCHEME_NAMES,
    make_coloc_scheme,
    run_colocated_server,
)
from repro.experiments.common import make_context
from repro.sim.request import Request
from repro.workloads.apps import MASSTREE

MIX = generate_mixes(1, seed=0)[0]


def dummy_request():
    return Request(rid=0, arrival_time=0.0, compute_cycles=1e6,
                   memory_time_s=0.0)


class TestInterference:
    def test_zero_interval_no_penalty(self):
        model = MicroarchInterference()
        assert model(0.0, dummy_request()) == 0.0

    def test_saturating_curve(self):
        model = MicroarchInterference(max_penalty_cycles=1000, tau_s=1e-4)
        small = model(1e-5, dummy_request())
        large = model(1e-2, dummy_request())
        assert 0 < small < large
        assert large == pytest.approx(1000, rel=0.01)

    def test_accounting(self):
        model = MicroarchInterference(max_penalty_cycles=1000, tau_s=1e-4)
        model(1e-3, dummy_request())
        model(1e-3, dummy_request())
        assert model.penalized_requests == 2
        assert model.total_penalty_cycles > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroarchInterference(max_penalty_cycles=-1)
        with pytest.raises(ValueError):
            MicroarchInterference(tau_s=0)


class TestSchemeFactory:
    def test_all_names_constructible(self):
        for name in COLOC_SCHEME_NAMES:
            scheme = make_coloc_scheme(name, lc_static_hz=2.4e9)
            assert scheme.name == name

    def test_static_requires_frequency(self):
        with pytest.raises(ValueError):
            make_coloc_scheme("StaticColoc")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_coloc_scheme("nope")


@pytest.fixture(scope="module")
def coloc_runs():
    """One run per scheme on a small shared configuration."""
    context = make_context(MASSTREE, 21, 1600)
    runs = {}
    for scheme in COLOC_SCHEME_NAMES:
        runs[scheme] = run_colocated_server(
            MASSTREE, 0.6, MIX, scheme, context, seed=5,
            requests_per_core=800)
    return context, runs


class TestColocatedServer:
    def test_all_lc_requests_complete(self, coloc_runs):
        _, runs = coloc_runs
        for scheme, res in runs.items():
            assert res.lc_response_times.size > 0

    def test_full_core_utilization(self, coloc_runs):
        """Batch soaks all idle cycles: ~100% core utilization (the
        RubikColoc headline)."""
        _, runs = coloc_runs
        assert runs["RubikColoc"].core_utilization > 0.99

    def test_rubikcoloc_meets_bound(self, coloc_runs):
        context, runs = coloc_runs
        res = runs["RubikColoc"]
        assert res.tail_latency() <= context.latency_bound_s * 1.05

    def test_hw_tpw_violates(self, coloc_runs):
        """HW-TPW is oblivious to deadlines and grossly violates
        (paper Fig. 15)."""
        context, runs = coloc_runs
        assert runs["HW-TPW"].tail_latency() > context.latency_bound_s * 1.5

    def test_batch_makes_progress(self, coloc_runs):
        _, runs = coloc_runs
        res = runs["RubikColoc"]
        assert sum(res.batch_instructions.values()) > 0
        assert res.batch_time_s > 0

    def test_interference_charged(self, coloc_runs):
        _, runs = coloc_runs
        assert runs["RubikColoc"].interference_penalty_cycles > 0

    def test_hw_t_near_tdp(self, coloc_runs):
        """HW-T spends the package budget."""
        _, runs = coloc_runs
        assert runs["HW-T"].mean_core_power_w > 35.0

    def test_rejects_empty_mix(self):
        context = make_context(MASSTREE, 21, 500)
        with pytest.raises(ValueError):
            run_colocated_server(MASSTREE, 0.6, [], "RubikColoc", context)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), 0,
                                     -3])
    def test_rejects_bad_requests_per_core(self, bad):
        context = make_context(MASSTREE, 21, 500)
        with pytest.raises(ValueError, match="requests_per_core"):
            run_colocated_server(MASSTREE, 0.6, MIX, "RubikColoc", context,
                                 requests_per_core=bad)

    def test_whole_float_requests_per_core_taken_as_int(self):
        context = make_context(MASSTREE, 21, 120)
        got = run_colocated_server(MASSTREE, 0.6, MIX, "StaticColoc",
                                   context, requests_per_core=60.0)
        want = run_colocated_server(MASSTREE, 0.6, MIX, "StaticColoc",
                                    context, requests_per_core=60)
        assert got.lc_response_times.tolist() == \
            want.lc_response_times.tolist()
        assert got.core_energy_j == want.core_energy_j

    def test_tail_latency_nan_when_no_lc_completions(self, coloc_runs):
        # An overloaded server that completed zero LC requests flags
        # itself with a NaN tail (the fleet aggregation counts it); it
        # must not raise and abort a whole shard.
        import dataclasses

        _, runs = coloc_runs
        starved = dataclasses.replace(
            runs["RubikColoc"], lc_response_times=np.array([]))
        assert math.isnan(starved.tail_latency())


class TestDatacenterModel:
    def test_batch_server_power_positive(self):
        p = batch_server_power(MIX)
        assert 20 < p < 120

    def test_batch_throughput_per_app(self):
        t = batch_server_throughput(MIX)
        assert len(t) == len({a.name for a in MIX})
        assert all(v > 0 for v in t.values())

    def test_segregated_power_increases_with_load(self):
        lo, _, _ = segregated_server(MASSTREE, 0.1, 21, 1500)
        hi, _, _ = segregated_server(MASSTREE, 0.5, 21, 1500)
        assert hi > lo

    def test_comparison_shape(self):
        comp = compare_datacenters(0.2, num_mixes=1, requests_per_core=400)
        assert comp.colocated.total_servers < comp.segregated.total_servers
        assert comp.power_reduction > 0
        assert comp.server_reduction > 0

    def test_advantage_grows_at_low_load(self):
        low = compare_datacenters(0.1, num_mixes=1, requests_per_core=400)
        high = compare_datacenters(0.5, num_mixes=1, requests_per_core=400)
        assert low.server_reduction > high.server_reduction
