"""Unified-runner tests: serial-vs-parallel bitwise equivalence for the
ported drivers (fig06, ablations, table1 since PR 3; fig01, fig02,
fig10, fig11, fig12 since PR 5), the experiment registry/CLI, and the
memoized latency bound.

Mirrors the contract of ``tests/core/test_fastpath_equivalence.py``:
fanning points out over worker processes (forced ``processes=2`` — the
CI container has one CPU) must reproduce the serial outputs exactly,
not approximately.
"""

import numpy as np
import pytest

from repro.core.table_cache import TABLE_CACHE
from repro.experiments import runner
from repro.experiments.ablations import run_ablations
from repro.experiments.common import latency_bound
from repro.experiments.fig01_intro import run_fig1a
from repro.experiments.fig02_variability import run_fig2a, run_fig2c
from repro.experiments.fig06_power_savings import run_fig6
from repro.experiments.fig10_load_steps import run_fig10
from repro.experiments.fig11_real_system import run_fig11
from repro.experiments.fig12_system_power import run_fig12
from repro.experiments.table1_correlations import run_table1
from repro.perf import WorkerPool, pools_created
from repro.resilience.execution import MAX_WORKERS_ENV
from repro.workloads.apps import MASSTREE

N = 400  # tiny but queueing-meaningful


class TestBitwiseEquivalence:
    def test_fig6_pool_equals_serial(self):
        kwargs = dict(num_requests=N, seeds=(3, 4), loads=(0.3,),
                      apps=("masstree",))
        serial = run_fig6(processes=1, **kwargs)
        pooled = run_fig6(processes=2, **kwargs)
        assert pooled.savings == serial.savings  # dict ==: bitwise floats
        assert pooled.loads == serial.loads
        assert pooled.schemes == serial.schemes

    def test_fig6_serial_forced_by_env(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        before = pools_created()
        res = run_fig6(num_requests=N, seeds=(3,), loads=(0.3,),
                       apps=("masstree",), processes=2)
        assert pools_created() == before  # env cap wins over explicit
        assert "masstree" in res.savings

    def test_ablations_pool_equals_serial(self):
        serial = run_ablations(num_requests=N, seed=3, processes=1)
        pooled = run_ablations(num_requests=N, seed=3, processes=2)
        assert pooled.rows == serial.rows
        assert pooled.bound_ms == serial.bound_ms

    def test_table1_pool_equals_serial(self):
        serial = run_table1(num_requests=N, seed=7, processes=1)
        pooled = run_table1(num_requests=N, seed=7, processes=2)
        assert pooled.per_app == serial.per_app

    def test_fig1a_pool_equals_serial(self):
        serial = run_fig1a(num_requests=N, processes=1)
        pooled = run_fig1a(num_requests=N, processes=2)
        assert pooled.static_oracle_mj == serial.static_oracle_mj
        assert pooled.rubik_mj == serial.rubik_mj
        assert pooled.loads == serial.loads

    def test_fig2a_fig2c_pool_equals_serial(self):
        serial_a = run_fig2a(num_requests=N, processes=1)
        pooled_a = run_fig2a(num_requests=N, processes=2)
        assert pooled_a.per_app == serial_a.per_app
        assert list(pooled_a.per_app) == list(serial_a.per_app)
        kwargs = dict(num_requests=N, loads=(0.3, 0.6))
        serial_c = run_fig2c(processes=1, **kwargs)
        pooled_c = run_fig2c(processes=2, **kwargs)
        assert pooled_c.per_app == serial_c.per_app
        assert pooled_c.loads == serial_c.loads

    def test_fig10_pool_equals_serial(self):
        kwargs = dict(apps=("masstree", "xapian"), num_requests=250)
        serial = run_fig10(processes=1, **kwargs)
        pooled = run_fig10(processes=2, **kwargs)
        assert list(pooled) == list(serial)
        for name in serial:
            s, p = serial[name], pooled[name]
            assert p.bound_ms == s.bound_ms
            assert list(p.tail_series_ms) == list(s.tail_series_ms)
            for scheme in s.tail_series_ms:
                for ps, ss in ((p.tail_series_ms[scheme],
                                s.tail_series_ms[scheme]),
                               (p.power_series_w[scheme],
                                s.power_series_w[scheme])):
                    np.testing.assert_array_equal(ps[0], ss[0])
                    np.testing.assert_array_equal(ps[1], ss[1])
            np.testing.assert_array_equal(p.rubik_freq[0], s.rubik_freq[0])
            np.testing.assert_array_equal(p.rubik_freq[1], s.rubik_freq[1])

    def test_fig11_pool_equals_serial(self):
        serial = run_fig11(num_requests=N, processes=1)
        pooled = run_fig11(num_requests=N, processes=2)
        assert pooled.savings == serial.savings
        assert pooled.rubik_meets_bound == serial.rubik_meets_bound

    def test_fig12_pool_equals_serial(self):
        serial = run_fig12(num_requests=N, processes=1)
        pooled = run_fig12(num_requests=N, processes=2)
        assert pooled.per_app == serial.per_app
        assert pooled.core_savings == serial.core_savings

    def test_drivers_under_one_shared_pool_equal_serial(self):
        """The regenerate-all shape: several drivers inside one
        WorkerPool share a single pool and still match serial runs."""
        serial = (run_table1(num_requests=N, seed=7, processes=1).per_app,
                  run_ablations(num_requests=N, seed=3, processes=1).rows)
        before = pools_created()
        with WorkerPool(processes=2):
            t = run_table1(num_requests=N, seed=7)
            a = run_ablations(num_requests=N, seed=3)
        assert pools_created() - before == 1
        assert t.per_app == serial[0]
        assert a.rows == serial[1]


class TestSharedTableCache:
    """The process-wide TailTableCache must be bitwise-invisible to the
    runner: a serial flow shares one cache across every point, a pooled
    flow gives each worker its own, and a fully warm cache replays the
    exact same decisions a cold one made."""

    def test_fig6_cold_warm_and_pool_all_equal(self):
        kwargs = dict(num_requests=N, seeds=(3, 4), loads=(0.3,),
                      apps=("masstree",))
        TABLE_CACHE.clear()
        cold = run_fig6(processes=1, **kwargs)
        warm = run_fig6(processes=1, **kwargs)   # all-hit serial rerun
        pooled = run_fig6(processes=2, **kwargs)  # per-worker caches
        assert warm.savings == cold.savings
        assert pooled.savings == cold.savings

    def test_ablations_warm_cache_equals_cold(self):
        TABLE_CACHE.clear()
        cold = run_ablations(num_requests=N, seed=3, processes=1)
        assert TABLE_CACHE.stats()["entries"] > 0
        warm = run_ablations(num_requests=N, seed=3, processes=1)
        pooled = run_ablations(num_requests=N, seed=3, processes=2)
        assert warm.rows == cold.rows
        assert pooled.rows == cold.rows


class TestFig6SubsetResult:
    def test_subset_schemes_do_not_keyerror(self):
        """Satellite fix: the result used to hardcode module-level
        SCHEMES in table()/mean_savings(), so subset runs blew up."""
        res = run_fig6(num_requests=N, seeds=(3,), loads=(0.3,),
                       apps=("masstree",), include=("Rubik",))
        assert res.schemes == ("Rubik",)
        assert res.loads == (0.3,)
        report = res.table()  # KeyError before the fix
        assert "Rubik" in report
        assert "StaticOracle" not in report
        assert res.mean_savings(0.3, "Rubik") == \
            res.savings["masstree"][0.3]["Rubik"]

    def test_one_app_one_load_run(self):
        res = run_fig6(num_requests=N, seeds=(3,), loads=(0.4,),
                       apps=("masstree",),
                       include=("StaticOracle", "Rubik"))
        assert set(res.savings) == {"masstree"}
        assert set(res.savings["masstree"]) == {0.4}
        assert "Fig. 6" in res.table()


class TestLatencyBoundMemo:
    def test_computed_once_per_key(self):
        latency_bound.cache_clear()
        b1 = latency_bound(MASSTREE, 3, 300)
        b2 = latency_bound(MASSTREE, 3, 300)
        assert b1 == b2
        info = latency_bound.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_distinct_keys_recompute(self):
        latency_bound.cache_clear()
        latency_bound(MASSTREE, 3, 300)
        latency_bound(MASSTREE, 4, 300)  # seed differs
        latency_bound(MASSTREE, 3, 301)  # num_requests differs
        assert latency_bound.cache_info().misses == 3


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        assert runner.experiment_names() == [
            "fig01", "fig02", "fig06", "fig07_08", "fig09", "fig10",
            "fig11", "fig12", "fig15", "fig16", "table1", "ablations",
            "fleet",
        ]

    def test_aliases_resolve_to_same_spec(self):
        assert runner.EXPERIMENTS["fig07"] is runner.EXPERIMENTS["fig07_08"]
        assert runner.EXPERIMENTS["fig08"] is runner.EXPERIMENTS["fig07_08"]

    def test_resolve_dedupes_and_orders(self):
        specs = runner.resolve(["table1", "fig06", "fig07", "fig08"])
        assert [s.name for s in specs] == ["fig06", "fig07_08", "table1"]

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError, match="fig99"):
            runner.resolve(["fig99"])

    def test_resolve_none_is_everything(self):
        assert [s.name for s in runner.resolve(None)] == \
            runner.experiment_names()


class TestRegenerateFlow:
    def test_regenerate_subset_through_one_pool(self, capsys):
        before = pools_created()
        reports = runner.regenerate(["table1", "ablations"],
                                    num_requests=N, processes=2)
        assert pools_created() - before <= 1
        assert list(reports) == ["table1", "ablations"]
        assert "Table 1" in reports["table1"]
        assert "ablations" in reports["ablations"].lower()
        # Reports were also printed, as the module main()s do.
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_regenerate_matches_standalone_runs(self):
        standalone = run_table1(num_requests=N, processes=1).table()
        reports = runner.regenerate(["table1"], num_requests=N,
                                    processes=2)
        assert reports["table1"] == standalone

    def test_cli_list(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in runner.experiment_names():
            assert name in out

    def test_cli_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["fig99"])
        assert excinfo.value.code == 2
        assert "fig99" in capsys.readouterr().err

    def test_cli_runs_named_experiment(self, capsys):
        assert runner.main(["table1", "-n", str(N)]) == 0
        out = capsys.readouterr().out
        assert "Regenerating: table1" in out
        assert "Table 1" in out
