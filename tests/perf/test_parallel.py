"""Tests for the parallel sweep executor (repro.perf)."""

import os
import signal
import time
import warnings

import pytest

from repro.perf import (
    WorkerPool,
    effective_workers,
    parallel_map,
    pools_created,
    shared_pool,
)
from repro.resilience import execution
from repro.resilience.execution import MAX_WORKERS_ENV


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _kill_worker_on_two(x):
    """SIGKILL the pool worker that runs cell 2."""
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.01)
    return x * x


def _slow_square(x):
    time.sleep(0.05)
    return x * x


def _nested_pool_driver(x):
    """A worker that itself runs a shared_pool-wrapped sweep (the shape
    of a driver like run_fig9 executing inside a pool worker)."""
    with shared_pool(processes=2):
        return sum(parallel_map(_square, [x, x + 1], processes=2))


class TestEffectiveWorkers:
    def test_single_task_is_serial(self):
        assert effective_workers(1) == 1
        assert effective_workers(0) == 1

    def test_explicit_processes_capped_by_tasks(self):
        assert effective_workers(3, processes=8) == 3
        assert effective_workers(8, processes=3) == 3

    def test_explicit_one_forces_serial(self):
        assert effective_workers(100, processes=1) == 1

    def test_auto_never_exceeds_machine(self):
        cpus = len(os.sched_getaffinity(0))
        assert effective_workers(10_000) <= cpus

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert effective_workers(64) == 1

    def test_env_cap_overrides_explicit_processes(self, monkeypatch):
        """The env throttle is global: explicit per-call counts cannot
        exceed it."""
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert effective_workers(64, processes=8) == 1

    def test_env_cap_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "0")
        assert effective_workers(64, processes=8) == 1


class TestEnvValidation:
    """Satellite fix: invalid REPRO_MAX_WORKERS used to be silently
    swallowed (and a negative value flowed through ``min()`` and forced
    serial with no diagnostic). Now it warns once and is treated as
    unset."""

    @pytest.fixture(autouse=True)
    def _fresh_warn_state(self):
        execution._warned_env_values.clear()
        yield
        execution._warned_env_values.clear()

    @pytest.mark.parametrize("raw", ["", "-3", "abc"])
    def test_invalid_value_warns_and_is_unset(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_WORKERS_ENV, raw)
        with pytest.warns(RuntimeWarning, match=MAX_WORKERS_ENV):
            # Treated as unset: the explicit count stands, and a
            # negative value in particular no longer forces serial.
            assert effective_workers(8, processes=4) == 4

    def test_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "abc")
        with pytest.warns(RuntimeWarning, match=MAX_WORKERS_ENV):
            effective_workers(8, processes=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_workers(8, processes=4) == 4


class TestParallelMap:
    def test_serial_fallback_matches_comprehension(self):
        items = list(range(20))
        assert parallel_map(_square, items, processes=1) == \
            [x * x for x in items]

    def test_pool_results_in_input_order(self):
        items = list(range(17))
        assert parallel_map(_square, items, processes=2) == \
            [x * x for x in items]

    def test_empty_items(self):
        assert parallel_map(_square, []) == []

    def test_worker_exception_propagates_serial(self):
        with pytest.raises(ValueError):
            parallel_map(_fail_on_three, [1, 2, 3], processes=1)

    def test_worker_exception_propagates_pool(self):
        with pytest.raises(ValueError):
            parallel_map(_fail_on_three, [1, 2, 3, 4], processes=2)

    def test_worker_exception_carries_original_traceback(self):
        """Satellite fix: the pool is terminated (not joined on live
        workers) and the first worker exception comes back as the
        original exception with the remote traceback attached."""
        start = time.monotonic()
        with pytest.raises(ValueError, match="boom") as excinfo:
            parallel_map(_fail_on_three, list(range(8)), processes=2)
        # Teardown is prompt — a leaked/joining pool would hang here.
        assert time.monotonic() - start < 30
        cause = excinfo.value.__cause__
        assert cause is not None
        assert "_fail_on_three" in str(cause)


class TestWorkerPool:
    def test_lazy_spawn_and_reuse_across_maps(self):
        before = pools_created()
        with WorkerPool(processes=2) as wp:
            assert not wp.spawned  # lazy: nothing forked yet
            r1 = parallel_map(_square, list(range(8)))
            r2 = parallel_map(_square, list(range(5)))
            assert wp.spawned
        assert pools_created() - before == 1
        assert r1 == [x * x for x in range(8)]
        assert r2 == [x * x for x in range(5)]

    def test_serial_flow_never_spawns(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        before = pools_created()
        with WorkerPool(processes=2) as wp:
            assert wp.size == 1
            assert parallel_map(_square, list(range(6))) == \
                [x * x for x in range(6)]
            assert not wp.spawned
        assert pools_created() == before

    def test_explicit_serial_call_inside_pool(self):
        with WorkerPool(processes=2) as wp:
            assert parallel_map(_square, list(range(6)), processes=1) == \
                [x * x for x in range(6)]
            assert not wp.spawned

    def test_single_item_stays_in_process(self):
        with WorkerPool(processes=2) as wp:
            assert parallel_map(_square, [7]) == [49]
            assert not wp.spawned

    def test_exception_terminates_then_recovers(self):
        with WorkerPool(processes=2) as wp:
            with pytest.raises(ValueError, match="boom"):
                parallel_map(_fail_on_three, list(range(8)))
            assert not wp.spawned  # broken pool was dropped
            # The next dispatch lazily recreates a clean pool.
            assert parallel_map(_square, list(range(6))) == \
                [x * x for x in range(6)]
            assert wp.spawned

    def test_worker_death_raises_then_recovers(self):
        """A cell that kills its worker fails the sweep within seconds
        instead of waiting forever on a result that cannot arrive; the
        dead pool is dropped and the next dispatch gets a fresh one."""
        with WorkerPool(processes=2) as wp:
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="cell 2"):
                parallel_map(_kill_worker_on_two, list(range(6)))
            assert time.monotonic() - start < 20
            assert not wp.spawned
            assert parallel_map(_square, list(range(6))) == \
                [x * x for x in range(6)]
            assert wp.spawned

    def test_shared_pool_reuses_active(self):
        before = pools_created()
        with WorkerPool(processes=2) as outer:
            with shared_pool(processes=2) as inner:
                assert inner is outer
                parallel_map(_square, list(range(6)))
        assert pools_created() - before == 1

    def test_shared_pool_creates_when_none_active(self):
        with shared_pool(processes=2) as pool:
            assert isinstance(pool, WorkerPool)
            assert parallel_map(_square, list(range(6))) == \
                [x * x for x in range(6)]

    def test_nested_pool_inside_worker_stays_serial(self):
        """A shared_pool-wrapped driver running *inside* a pool worker
        must fall back to serial (daemonic processes cannot fork
        children) instead of crashing."""
        expected = [x * x + (x + 1) * (x + 1) for x in range(4)]
        assert parallel_map(_nested_pool_driver, list(range(4)),
                            processes=2) == expected
        # And the same shape works in-process too.
        assert _nested_pool_driver(1) == 1 + 4


class TestExperimentsUnderPool:
    def test_load_sweep_pool_equals_serial(self):
        """A forced 2-worker sweep reproduces the serial sweep exactly
        (determinism is per-point, so process fan-out cannot change
        results)."""
        from repro.experiments.fig09_load_sweep import run_load_sweep

        serial = run_load_sweep("masstree", loads=(0.3, 0.6),
                                num_requests=400, seed=5, processes=1)
        pooled = run_load_sweep("masstree", loads=(0.3, 0.6),
                                num_requests=400, seed=5, processes=2)
        assert pooled.tail_ms == serial.tail_ms
        assert pooled.energy_mj == serial.energy_mj
        assert pooled.bound_ms == serial.bound_ms

    def test_load_sweep_under_shared_pool_equals_serial(self):
        """The same sweep dispatched onto a persistent WorkerPool is
        bitwise-identical too (and spawns that pool exactly once)."""
        from repro.experiments.fig09_load_sweep import run_load_sweep

        serial = run_load_sweep("masstree", loads=(0.3, 0.6),
                                num_requests=400, seed=5, processes=1)
        before = pools_created()
        with WorkerPool(processes=2):
            pooled = run_load_sweep("masstree", loads=(0.3, 0.6),
                                    num_requests=400, seed=5)
        assert pools_created() - before == 1
        assert pooled.tail_ms == serial.tail_ms
        assert pooled.energy_mj == serial.energy_mj
