"""Shard-count invariance suite (docs/performance.md invariants 21/22).

The fleet contract: an N-shard run is bitwise-identical to the 1-shard
reference, for any N, serial or pooled — the same way serial-vs-pool is
pinned for every driver. The representative fleet, the only datacenter
path, is also pinned against the original single-process loop kept
here. Small sweep sizes keep this tier-1."""

import numpy as np
import pytest

from repro.coloc.batch import generate_mixes
from repro.coloc.datacenter import (
    BATCH_SERVERS,
    LC_SERVERS,
    DatacenterComparison,
    DatacenterPoint,
    batch_server_power,
    batch_server_throughput,
    compare_datacenters,
    datacenter_defaults,
)
from repro.coloc.server import run_colocated_server
from repro.experiments import common, fig16_datacenter
from repro.experiments.common import latency_bound
from repro.experiments.configs import CONFIGS
from repro.fleet import run_datacenter_fleet, run_routed_fleet
from repro.power.model import DEFAULT_SYSTEM_POWER
from repro.schemes.base import SchemeContext
from repro.schemes.replay import replay
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, app_names

MIXES = 1
RPC = 300
LOAD = 0.3

ROUTED = dict(num_servers=30, seed=21, num_epochs=3,
              requests_per_core=150)


def reference_comparison(lc_load, seed, num_mixes, requests_per_core):
    """The small-fleet oracle: the original single-process loop of
    ``compare_datacenters`` with the default power models, kept as test
    code. It must not call ``segregated_server`` or ``colocated_server``,
    so it stays independent of the helpers the fleet path runs."""
    mixes = generate_mixes(num_mixes=num_mixes, seed=0)
    apps = [APPS[name] for name in app_names()]

    seg_lc_powers = []
    coloc_powers = []
    deficits = []  # fraction of a batch server still needed
    batch_powers = []

    for mix in mixes:
        batch_powers.append(batch_server_power(mix))
        seg_tput = batch_server_throughput(mix)
        for app in apps:
            num_requests = requests_per_core * 2
            bound = latency_bound(app, seed, num_requests)
            context = SchemeContext(latency_bound_s=bound, app=app)
            # Segregated server: StaticOracle DVFS.
            trace = Trace.generate_at_load(app, lc_load, num_requests, seed)
            f = find_static_frequency(trace, bound, context)
            result = replay(trace, f)
            seg_lc_powers.append(DEFAULT_SYSTEM_POWER.server_power(
                result.mean_core_power_w, utilization=min(1.0, lc_load)))
            coloc = run_colocated_server(
                app, lc_load, mix, "RubikColoc", context, seed=seed,
                requests_per_core=requests_per_core)
            util = min(1.0, coloc.core_utilization)
            coloc_powers.append(DEFAULT_SYSTEM_POWER.server_power(
                coloc.mean_core_power_w / coloc.num_cores, util))
            # Batch throughput shortfall vs a dedicated server, averaged
            # over the mix's apps.
            ratios = []
            for name, seg_ips in seg_tput.items():
                ratios.append(coloc.batch_throughput(name) / seg_ips)
            deficits.append(max(0.0, 1.0 - float(np.mean(ratios))))

    mean_batch_power = float(np.mean(batch_powers))
    segregated = DatacenterPoint(
        lc_load=lc_load,
        lc_server_power_w=float(np.mean(seg_lc_powers)),
        batch_server_power_w=mean_batch_power,
        num_lc_servers=LC_SERVERS,
        num_batch_servers=BATCH_SERVERS,
    )
    colocated = DatacenterPoint(
        lc_load=lc_load,
        lc_server_power_w=float(np.mean(coloc_powers)),
        batch_server_power_w=mean_batch_power,
        num_lc_servers=LC_SERVERS,
        num_batch_servers=BATCH_SERVERS * float(np.mean(deficits)),
    )
    return DatacenterComparison(segregated=segregated, colocated=colocated)


class TestDatacenterFleetInvariance:
    def test_fleet_matches_small_fleet_oracle_bitwise(self):
        # The fleet path reproduces the original inline loop exactly —
        # equality, not tolerance. Two mixes, so a slip in a server's
        # mix index shows; two loads, so the load reaches every server.
        for load in (0.1, 0.3):
            oracle = reference_comparison(load, seed=21, num_mixes=2,
                                          requests_per_core=150)
            fleet = compare_datacenters(load, num_mixes=2,
                                        requests_per_core=150)
            assert fleet == oracle, load

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_shard_count_invariant(self, num_shards):
        one = run_datacenter_fleet(LOAD, num_mixes=MIXES,
                                   requests_per_core=RPC, num_shards=1)
        many = run_datacenter_fleet(LOAD, num_mixes=MIXES,
                                    requests_per_core=RPC,
                                    num_shards=num_shards)
        assert many.equals(one)

    def test_serial_vs_pool_bitwise(self):
        serial = run_datacenter_fleet(LOAD, num_mixes=MIXES,
                                      requests_per_core=RPC,
                                      num_shards=4, processes=1)
        pooled = run_datacenter_fleet(LOAD, num_mixes=MIXES,
                                      requests_per_core=RPC,
                                      num_shards=4, processes=2)
        assert pooled.equals(serial)

    def test_state_layout_is_mix_major_app_minor(self):
        state = run_datacenter_fleet(LOAD, num_mixes=2,
                                     requests_per_core=150,
                                     num_shards=3)
        n_apps = int(state.app_idx.max()) + 1
        for i in range(state.num_servers):
            assert state.app_idx[i] == i % n_apps
            assert state.mix_idx[i] == i // n_apps


class TestRoutedFleetInvariance:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_shard_count_invariant(self, num_shards):
        one = run_routed_fleet(num_shards=1, **ROUTED)
        many = run_routed_fleet(num_shards=num_shards, **ROUTED)
        assert many.equals(one)

    def test_serial_vs_pool_bitwise(self):
        serial = run_routed_fleet(num_shards=2, processes=1, **ROUTED)
        pooled = run_routed_fleet(num_shards=2, processes=2, **ROUTED)
        assert pooled.equals(serial)

    def test_seed_changes_the_fleet(self):
        base = run_routed_fleet(num_shards=2, **ROUTED)
        other = run_routed_fleet(num_shards=2,
                                 **{**ROUTED, "seed": 22})
        assert not base.state.equals(other.state)


class TestDefaultsFromConfig:
    def test_defaults_source_from_fig16_config(self):
        config = CONFIGS["fig16"]
        assert datacenter_defaults() == (
            config.extra("num_mixes"),
            config.extra("default_requests_per_core"))

    def test_explicit_args_pass_through(self):
        assert datacenter_defaults(2, 500) == (2, 500)
        sizes = datacenter_defaults(np.int64(2), 500.0)
        assert sizes == (2, 500)
        assert all(type(size) is int for size in sizes)

    def test_compare_datacenters_defaults_are_config_sourced(self):
        # Hard-coded defaults once disagreed with the fig16 driver's
        # cells; both arguments default to None and resolve through
        # datacenter_defaults.
        import inspect

        for fn in (compare_datacenters, run_datacenter_fleet):
            sig = inspect.signature(fn)
            assert sig.parameters["num_mixes"].default is None, fn
            assert sig.parameters["requests_per_core"].default is None, fn

    @pytest.mark.parametrize("bad", [
        dict(num_mixes=0), dict(num_mixes=-1), dict(requests_per_core=0),
        dict(num_mixes=1.5), dict(requests_per_core=800.9),
        dict(num_mixes=float("nan")), dict(requests_per_core=float("inf")),
    ], ids=str)
    @pytest.mark.parametrize("fn, first", [
        (fig16_datacenter.run_fig16, (LOAD,)),
        (compare_datacenters, LOAD),
        (run_datacenter_fleet, LOAD),
    ], ids=["run_fig16", "compare_datacenters", "run_datacenter_fleet"])
    def test_bad_sizes_raise_before_dispatch(self, fn, first, bad,
                                             monkeypatch):
        def dispatch(*args, **kwargs):
            raise AssertionError("a cell was dispatched")

        monkeypatch.setattr(common, "run_cells", dispatch)
        monkeypatch.setattr(fig16_datacenter, "run_cells", dispatch)
        with pytest.raises(ValueError, match=next(iter(bad))):
            fn(first, **bad)
