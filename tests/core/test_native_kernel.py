"""Native-kernel build gate, fallback, and whole-run span tests.

Three contracts beyond the three-leg decision-oracle sweep in
``test_decision_kernel.py``:

* the ``REPRO_NATIVE`` environment gate validates like
  ``REPRO_MAX_WORKERS`` (warn once per distinct invalid value, read as
  ``auto``) and ``0`` disables the native path even with a loaded
  library;
* a box where the library cannot load (simulated by a broken
  ``ctypes.CDLL``) warns once, then silently dispatches the Python
  kernel, with ``REPRO_NATIVE`` unset or ``1`` alike — and
  ``decision_path`` / ``kernel_stats`` report what served the run;
* the whole-run C span loop (``run_trace`` handing the event loop to
  ``NativeRunSession``) is bitwise-identical to the Python event loop,
  and a pure-Python run under ``REPRO_NATIVE=0`` reproduces experiment
  outputs exactly (Fig. 6 spot-check).
"""

import warnings
from unittest import mock

import pytest

from repro.coloc.batch import BatchTask, generate_mixes
from repro.coloc.interference import MicroarchInterference
from repro.coloc.schemes import RubikColocScheme
from repro.core._native import build
from repro.core.controller import Rubik
from repro.core.decision_kernel import DecisionKernel
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.server import run_trace, serve
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE

skip_without_native = pytest.mark.skipif(
    not build.available(),
    reason="native Rubik kernel library unavailable")


@pytest.fixture
def fresh_build_state():
    """Clear the build/load memo (and warn-once sets) around a test so
    it can exercise the failure and env-gate paths, then clear again so
    later tests re-probe the real library."""
    build._reset_for_tests()
    yield
    build._reset_for_tests()


def python_kernel():
    """Hide the native library, so a plain ``Rubik`` runs on the Python
    kernel."""
    return mock.patch.object(build, "load_library", lambda: None)


def _small_run(rubik, seed=3, n=200, load=0.5):
    ctx = make_context(MASSTREE, seed, n)
    trace = Trace.generate_at_load(MASSTREE, load, n, seed)
    return run_trace(trace, rubik, ctx)


def _fingerprint(res):
    """Every externally visible field of a RunResult, for bitwise
    comparison (floats compared exactly, never approximately)."""
    return (
        [(r.rid, r.arrival_time, r.compute_cycles, r.memory_time_s,
          r.start_time, r.finish_time, r.progress, r.predicted_cycles)
         for r in res.requests],
        res.warmup, res.duration_s, res.energy_j, res.active_energy_j,
        res.idle_energy_j, res.busy_time_s, res.utilization,
        res.busy_freq_hist, res.dvfs_transitions, res.freq_history,
        res.segment_log, res.events_processed,
    )


class TestEnvGate:
    @pytest.mark.parametrize("raw", ["", "maybe", "-1"])
    def test_invalid_values_warn_once_and_read_auto(
            self, monkeypatch, fresh_build_state, raw):
        monkeypatch.setenv(build.NATIVE_ENV, raw)
        with pytest.warns(RuntimeWarning,
                          match="ignoring invalid REPRO_NATIVE"):
            assert build.env_mode() == "auto"
        # Warn-once per distinct value: the second read is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build.env_mode() == "auto"

    def test_valid_values_parse(self, monkeypatch, fresh_build_state):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setenv(build.NATIVE_ENV, "0")
            assert build.env_mode() == "0"
            monkeypatch.setenv(build.NATIVE_ENV, "1")
            assert build.env_mode() == "1"
            monkeypatch.setenv(build.NATIVE_ENV, " AUTO ")
            assert build.env_mode() == "auto"
            monkeypatch.delenv(build.NATIVE_ENV)
            assert build.env_mode() == "auto"

    def test_zero_disables_dispatch(self, monkeypatch):
        """``REPRO_NATIVE=0`` wins even when the library is already
        loaded: the gate is re-read on every resolution."""
        monkeypatch.setenv(build.NATIVE_ENV, "0")
        assert build.load_library() is None
        assert not build.available()
        r = Rubik()
        res = _small_run(r)
        assert r.decision_path == "kernel"
        assert len(res.requests) == 200
        assert type(r._decide.__self__) is DecisionKernel
        assert r.kernel_stats is not None
        assert r.kernel_stats.decisions == 400

    @pytest.mark.native
    @skip_without_native
    def test_zero_flips_a_live_controller(self, monkeypatch):
        monkeypatch.delenv(build.NATIVE_ENV, raising=False)
        r = Rubik()
        _small_run(r)
        assert r.decision_path == "native"
        monkeypatch.setenv(build.NATIVE_ENV, "0")
        _small_run(r)
        assert r.decision_path == "kernel"  # resolved per run


class TestFallback:
    @pytest.mark.parametrize("env", [None, "1"], ids=["unset", "1"])
    def test_broken_cdll_warns_once_then_python_kernel(
            self, monkeypatch, fresh_build_state, env):
        """No loadable library: one RuntimeWarning, then every probe and
        every run silently uses the Python kernel. ``REPRO_NATIVE=1``
        reads like unset: it requires nothing."""
        if env is None:
            monkeypatch.delenv(build.NATIVE_ENV, raising=False)
        else:
            monkeypatch.setenv(build.NATIVE_ENV, env)

        def broken_cdll(path):
            raise OSError("simulated dlopen failure")

        monkeypatch.setattr(build.ctypes, "CDLL", broken_cdll)
        with pytest.warns(RuntimeWarning,
                          match="falling back to the Python kernel"):
            assert not build.available()
        # Warn-once: repeated probes stay silent (memoized failure).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not build.available()
            assert build.load_library() is None

        info = build.build_info()
        assert info["attempted"] and not info["loaded"]
        assert "dlopen failure" in info["error"]

        # decision_path / kernel_stats report what served the run.
        r = Rubik()
        res = _small_run(r)
        assert r.decision_path == "kernel"
        assert len(res.requests) == 200
        assert type(r._decide.__self__) is DecisionKernel
        assert r.kernel_stats is not None
        assert r.kernel_stats.decisions == 400

    def test_cache_name_covers_the_compile_command(self, monkeypatch):
        """A flag or library change is a cache miss, like a source
        change: the .so name hashes the command with the source."""
        before = [path.name for path in build._cached_paths()]
        monkeypatch.setattr(build, "_CFLAGS", build._CFLAGS + ("-g",))
        flagged = [path.name for path in build._cached_paths()]
        monkeypatch.undo()
        monkeypatch.setattr(build, "_LIBS", ())
        unlinked = [path.name for path in build._cached_paths()]
        assert len({tuple(before), tuple(flagged), tuple(unlinked)}) == 3
        for names in (flagged, unlinked):
            assert not set(names) & set(before)

    @pytest.mark.native
    @skip_without_native
    def test_build_info_reports_success(self):
        assert build.available()  # reloads after a reset by another test
        info = build.build_info()
        assert info["loaded"] and info["attempted"]
        assert info["path"] and info["error"] is None
        assert info["build_seconds"] is not None


@pytest.mark.native
@skip_without_native
class TestNativeSpan:
    """run_trace hands the whole event loop to the C span kernel."""

    def test_span_session_engages(self, monkeypatch):
        from repro.core._native import session as session_mod

        engaged = []
        orig_run = session_mod.NativeRunSession.run

        def spy(self):
            engaged.append(True)
            return orig_run(self)

        monkeypatch.setattr(session_mod.NativeRunSession, "run", spy)
        r = Rubik()
        res = _small_run(r)
        assert engaged, "native span session did not engage"
        assert r.decision_path == "native"
        assert len(res.requests) == 200
        assert r.kernel_stats is not None
        assert r.kernel_stats.decisions == 400

    @pytest.mark.parametrize("seed,load", [(7, 0.5), (21, 1.5), (42, 0.9)])
    def test_span_bitwise_identical_to_python_loop(self, seed, load):
        n = 500
        ctx = make_context(MASSTREE, seed, n)
        trace = Trace.generate_at_load(MASSTREE, load, n, seed)
        r_py, r_nat = Rubik(), Rubik()
        with python_kernel():
            res_py = run_trace(trace, r_py, ctx)
        res_nat = run_trace(trace, r_nat, ctx)
        assert (r_py.decision_path, r_nat.decision_path) == ("kernel",
                                                             "native")
        assert _fingerprint(res_nat) == _fingerprint(res_py)

    def test_span_with_instrumented_core(self):
        """Segment logging + frequency history export identically."""
        n = 400
        ctx = make_context(MASSTREE, 11, n)
        trace = Trace.generate_at_load(MASSTREE, 0.8, n, 11)
        kwargs = dict(log_segments=True, record_freq_history=True)
        with python_kernel():
            res_py = run_trace(trace, Rubik(), ctx, **kwargs)
        res_nat = run_trace(trace, Rubik(), ctx, **kwargs)
        assert res_nat.segment_log  # instrumentation actually ran
        assert res_nat.freq_history
        assert _fingerprint(res_nat) == _fingerprint(res_py)

    def test_instrumented_and_colocated_runs_report_native(self):
        """The runs fig01 and fig10 make (segment log and frequency
        history on) and a colocated RubikColoc core take the span."""
        n = 300
        ctx = make_context(MASSTREE, 11, n)
        trace = Trace.generate_at_load(MASSTREE, 0.6, n, 11)
        r = Rubik()
        run_trace(trace, r, ctx, log_segments=True,
                  record_freq_history=True)
        assert r.decision_path == "native"
        sim = Simulator()
        task = BatchTask(generate_mixes(1, seed=0)[0][0], ctx.dvfs,
                         DEFAULT_CORE_POWER)
        core = Core(sim, ctx.dvfs, DEFAULT_CORE_POWER, background=task,
                    interference_cycles=MicroarchInterference())
        coloc = RubikColocScheme()
        serve(sim, core, coloc, ctx, trace)
        assert coloc.decision_path == "native"
        assert coloc.kernel_stats.decisions == 2 * n

    def test_span_kernel_stats_match_python_kernel(self):
        n = 500
        ctx = make_context(MASSTREE, 5, n)
        trace = Trace.generate_at_load(MASSTREE, 0.7, n, 5)
        r_py = Rubik()
        r_nat = Rubik()
        with python_kernel():
            run_trace(trace, r_py, ctx)
        run_trace(trace, r_nat, ctx)
        assert r_nat.kernel_stats.as_dict() == r_py.kernel_stats.as_dict()


class TestFig6SpotCheck:
    def test_fig06_identical_with_and_without_native(self, monkeypatch):
        """The acceptance spot-check: a Fig. 6 cell computed under
        ``REPRO_NATIVE=0`` (pure Python) equals the default-path run
        exactly."""
        from repro.experiments.fig06_power_savings import run_fig6

        kwargs = dict(num_requests=400, seeds=(3,), loads=(0.3,),
                      apps=("masstree",), include=("Rubik",), processes=1)
        monkeypatch.delenv(build.NATIVE_ENV, raising=False)
        res_default = run_fig6(**kwargs)
        monkeypatch.setenv(build.NATIVE_ENV, "0")
        res_python = run_fig6(**kwargs)
        assert res_default.savings == res_python.savings
