"""Resilient-executor tests: retry/timeout/lost-worker semantics, the
fault-free bitwise pin, and the SIGKILL recovery acceptance case.

Worker helpers are module-level (picklable). The crash helpers use
``os.kill`` directly — test code is outside the lint scope, and a real
SIGKILL (not a cooperative exit) is exactly what the executor must
survive.
"""

import math
import os
import signal
import time

import pytest

from repro.experiments.common import _compare_seed
from repro.perf import parallel_map, pools_created
from repro.resilience import (
    CellFailure,
    FaultPlan,
    RetryPolicy,
    SweepStats,
    active_policy,
    faults,
    resilient_map,
    use_policy,
)
from repro.resilience.execution import MAX_WORKERS_ENV
from repro.workloads.apps import APPS


def _square(x):
    return x * x


def _fail_below(args):
    """Raise until ``attempt_file`` records enough attempts."""
    x, path, fail_attempts = args
    with open(path, "a") as fh:
        fh.write("x")
    attempts = os.path.getsize(path)
    if attempts <= fail_attempts:
        raise ValueError(f"transient #{attempts}")
    return x * x


def _always_fail(x):
    raise ValueError(f"permanent {x}")


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x * x


def _interrupt(path):
    """Count the attempt in ``path``, then act like Ctrl-C."""
    with open(path, "a") as fh:
        fh.write("x")
    raise KeyboardInterrupt


def _kill_once(args):
    """SIGKILL our own worker the first time the marked cell runs."""
    x, marker = args
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.01)
    return x * x


def _slow_or_kill(args):
    """Cell 0 outlives the grace window; cell 1 SIGKILLs its worker
    on its first run (``marker`` absent), then succeeds."""
    x, marker = args
    if marker is None:
        time.sleep(0.6)
    elif not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 1 and policy.timeout_s is None

    @pytest.mark.parametrize("kwargs", [
        dict(max_retries=-1),
        dict(timeout_s=0),
        dict(backoff_s=-1),
        dict(max_pool_losses=-1),
        dict(poll_interval_s=0),
        dict(grace_s=-0.1),
        # Non-finite: a NaN timeout would never expire (`now > nan` is
        # always false), silently turning timeouts off.
        dict(timeout_s=math.nan),
        dict(timeout_s=math.inf),
        dict(backoff_s=math.inf),
        dict(poll_interval_s=math.nan),
        dict(grace_s=math.nan),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_deterministic_exponential_jittered(self):
        policy = RetryPolicy(backoff_s=0.1, seed=3)
        first = policy.backoff_for(2, 1)
        assert first == policy.backoff_for(2, 1)
        # Jitter keeps each step within [0.5, 1.5) of the base scale.
        assert 0.05 <= first < 0.15
        assert 0.1 <= policy.backoff_for(2, 2) < 0.3
        assert policy.backoff_for(2, 0) == 0.0
        assert RetryPolicy().backoff_for(2, 1) == 0.0

    def test_use_policy_scopes_activation(self):
        assert active_policy() is None
        policy = RetryPolicy(max_retries=3)
        with use_policy(policy):
            assert active_policy() is policy
        assert active_policy() is None


class TestSerialExecution:
    def test_matches_comprehension(self):
        stats = SweepStats()
        items = list(range(12))
        assert resilient_map(_square, items, processes=1,
                             stats=stats) == [x * x for x in items]
        assert stats.cells == 12 and stats.failures == 0
        assert stats.retries == 0 and not stats.degraded_serial

    def test_empty_items(self):
        assert resilient_map(_square, [], processes=1) == []

    def test_transient_failure_retried_then_recovers(self, tmp_path):
        counter = tmp_path / "attempts"
        stats = SweepStats()
        out = resilient_map(
            _fail_below, [(7, str(counter), 1)], processes=1,
            policy=RetryPolicy(max_retries=2), stats=stats)
        assert out == [49]
        assert stats.retries == 1 and stats.failures == 0

    def test_terminal_failure_is_cell_failure_with_traceback(self):
        stats = SweepStats()
        out = resilient_map(_fail_on_three, [3, 4], processes=1,
                            policy=RetryPolicy(max_retries=1),
                            stats=stats)
        assert out[1] == 16
        failure = out[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "exception" and failure.attempts == 2
        assert "ValueError: boom" in failure.error
        assert "_fail_on_three" in failure.traceback
        assert "after 2 attempt(s)" in str(failure)
        assert stats.failures == 1 and stats.retries == 1

    def test_injected_cell_raise_recovers_after_budget(self):
        plan = FaultPlan.parse("cell.raise@2")
        with faults.activate(plan):
            stats = SweepStats()
            out = resilient_map(_square, [1, 2, 3], processes=1,
                                policy=RetryPolicy(max_retries=1),
                                stats=stats)
        assert out == [1, 4, 9]
        assert stats.retries == 1 and stats.failures == 0

    def test_keyboard_interrupt_propagates_after_one_attempt(
            self, tmp_path):
        """Ctrl-C in an in-process cell stops the sweep: it is neither
        recorded as a cell failure nor retried."""
        counter = tmp_path / "attempts"
        with pytest.raises(KeyboardInterrupt):
            resilient_map(_interrupt, [str(counter), str(counter)],
                          processes=1, policy=RetryPolicy(max_retries=2))
        assert os.path.getsize(counter) == 1

    def test_serial_never_fires_process_hooks(self):
        """worker.crash / worker.hang are worker-gated: a serial run must
        never kill or hang the driver process itself."""
        plan = FaultPlan.parse("worker.crash@0;worker.hang@1:times=9")
        with faults.activate(plan):
            assert resilient_map(_square, [1, 2], processes=1) == [1, 4]

    def test_env_cap_forces_serial_path(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        before = pools_created()
        assert resilient_map(_square, list(range(8)),
                             processes=4) == [x * x for x in range(8)]
        assert pools_created() == before


class TestPooledExecution:
    def test_fault_free_identical_to_parallel_map(self):
        items = list(range(10))
        stats = SweepStats()
        got = resilient_map(_square, items, processes=2, stats=stats)
        assert got == parallel_map(_square, items, processes=2)
        assert got == [x * x for x in items]
        assert (stats.retries, stats.failures, stats.timeouts,
                stats.worker_losses, stats.pool_rebuilds) == (0,) * 5
        assert not stats.degraded_serial

    def test_fault_free_policy_overhead_is_small(self):
        """A default RetryPolicy over fig06-shaped cells costs under 2x
        the plain sweep once a warm-up pass has run."""
        points = [(APPS[name], load, 21, 200, ("Rubik",))
                  for name in ("masstree", "xapian") for load in (0.3, 0.5)]
        parallel_map(_compare_seed, points)  # warm-up
        t0 = time.perf_counter()
        parallel_map(_compare_seed, points)
        baseline_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        resilient_map(_compare_seed, points, policy=RetryPolicy())
        resilient_wall = time.perf_counter() - t0
        assert resilient_wall < 2.0 * baseline_wall, (
            f"resilient {resilient_wall:.3f}s vs plain {baseline_wall:.3f}s")

    def test_pooled_terminal_failure_keeps_sweep_alive(self):
        stats = SweepStats()
        out = resilient_map(_always_fail, [1, 2, 3], processes=2,
                            policy=RetryPolicy(max_retries=0),
                            stats=stats)
        assert all(isinstance(f, CellFailure) for f in out)
        assert [f.index for f in out] == [0, 1, 2]
        assert all("_always_fail" in f.traceback for f in out)
        assert stats.failures == 3 and stats.retries == 0

    def test_pooled_injected_raise_retries_and_recovers(self):
        plan = FaultPlan.parse("cell.raise@1")
        with faults.activate(plan):
            stats = SweepStats()
            out = resilient_map(_square, [5, 6, 7], processes=2,
                                policy=RetryPolicy(max_retries=1),
                                stats=stats)
        assert out == [25, 36, 49]
        assert stats.retries == 1 and stats.failures == 0

    def test_sigkilled_worker_recovered_with_one_rebuild(self, tmp_path):
        """Acceptance (satellite): SIGKILL a pool child mid-sweep. The
        sweep completes, the lost cell is retried exactly once, the
        surviving cells are bitwise-identical to a serial run, and
        ``pools_created`` reflects exactly one rebuild (initial pool +
        one replacement)."""
        marker = tmp_path / "killed"
        items = [(x, str(marker) if x == 0 else None)
                 for x in range(6)]
        serial = [x * x for x in range(6)]
        stats = SweepStats()
        before = pools_created()
        out = resilient_map(
            _kill_once, items, processes=2,
            policy=RetryPolicy(max_retries=2), stats=stats)
        assert out == serial
        assert marker.exists()
        assert stats.worker_losses == 1
        assert stats.pool_rebuilds == 1
        assert pools_created() - before == 2  # initial + one rebuild
        assert stats.retries == 1  # the lost cell, exactly once
        assert stats.failures == 0 and not stats.degraded_serial

    def test_slow_neighbour_of_a_crash_is_not_charged(self, tmp_path):
        """A worker death is charged only to the cell that started on
        the dead worker: a slow cell still running on a live worker
        after the grace window is re-dispatched uncharged, even with
        no retry budget at all."""
        marker = tmp_path / "killed"
        stats = SweepStats()
        out = resilient_map(
            _slow_or_kill, [(3, None), (4, str(marker))], processes=2,
            policy=RetryPolicy(max_retries=0, grace_s=0.05), stats=stats)
        assert marker.exists()
        assert out[0] == 9  # the slow neighbour, never charged
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "worker-lost" and failure.attempts == 1
        assert stats.worker_losses == 1 and stats.pool_rebuilds == 1
        assert stats.failures == 1 and stats.retries == 0

    def test_crash_budget_exhaustion_degrades_to_serial(self):
        """A plan that kills every worker attempt forces rebuilds past
        max_pool_losses; the executor then degrades to in-process
        execution — where the worker-gated hook is inert — and still
        finishes every cell."""
        plan = FaultPlan.parse("worker.crash:p=1.0,times=99")
        with faults.activate(plan):
            stats = SweepStats()
            out = resilient_map(
                _square, list(range(6)), processes=2,
                policy=RetryPolicy(max_retries=8, max_pool_losses=1),
                stats=stats)
        assert out == [x * x for x in range(6)]
        assert stats.degraded_serial
        assert stats.pool_rebuilds == 2  # max_pool_losses + 1
        assert stats.worker_losses >= 2

    def test_hung_cell_soft_timeout_charged_and_pool_rebuilt(self):
        plan = FaultPlan.parse("worker.hang@1:times=9")
        with faults.activate(plan):
            stats = SweepStats()
            out = resilient_map(
                _square, [1, 2, 3], processes=2,
                policy=RetryPolicy(max_retries=1, timeout_s=0.5,
                                   grace_s=0.1),
                stats=stats)
        assert out[0] == 1 and out[2] == 9
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout" and failure.attempts == 2
        assert stats.timeouts == 2
        assert stats.pool_rebuilds == 2  # one per timed-out attempt
        assert stats.failures == 1


class TestStrictPath:
    """Without an active policy, sweeps fire no cell hooks."""

    @pytest.mark.parametrize("processes", [1, 2])
    def test_cell_hooks_inert_without_policy(self, processes):
        from repro.experiments.common import run_cells

        items = [1, 2, 3]
        with faults.activate(FaultPlan.parse("cell.raise@0")):
            assert parallel_map(_square, items, processes=processes) == \
                [1, 4, 9]
            assert run_cells("fig06", _square, items,
                             processes=processes) == [1, 4, 9]


class TestRunnerPolicyFlags:
    """The regenerate CLI's resilience flags construct the policy and
    route it into ``regenerate`` (driver execution is covered by the
    chaos test; here the wiring is checked without running drivers)."""

    @pytest.fixture()
    def captured(self, monkeypatch):
        from repro.experiments import runner

        calls = {}

        def fake_regenerate(names, **kwargs):
            calls.update(kwargs, names=names)
            return {}

        monkeypatch.setattr(runner, "regenerate", fake_regenerate)
        return calls

    def test_no_flags_means_no_policy(self, captured):
        from repro.experiments import runner

        assert runner.main(["fig06", "-n", "50"]) == 0
        assert captured["policy"] is None
        assert captured["keep_going"] is False

    def test_flags_build_policy(self, captured):
        from repro.experiments import runner

        assert runner.main(["fig06", "--keep-going", "--max-retries",
                            "3", "--cell-timeout", "2.5"]) == 0
        policy = captured["policy"]
        assert policy.max_retries == 3 and policy.timeout_s == 2.5
        assert captured["keep_going"] is True

    def test_keep_going_alone_activates_executor(self, captured):
        from repro.experiments import runner

        assert runner.main(["fig06", "--keep-going"]) == 0
        assert captured["policy"] is not None
        assert captured["policy"].max_retries == 1

    @pytest.mark.parametrize("argv", [
        ["--max-retries", "-1"],
        ["--cell-timeout", "0"],
        ["--cell-timeout", "nan"],
        ["-n", "0"],
        ["--processes", "0"],
        ["--processes", "-3"],
    ])
    def test_bad_values_exit_through_parser_error(self, captured, capsys,
                                                  argv):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as exc:
            runner.main(["fig06", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] \
            == [err.splitlines()[-1]]
        assert "names" not in captured  # nothing ran
