"""Decision-oracle suite for the incremental Eq. 2 kernel.

Every decision path must be *decision-equivalent* to the scalar oracle:
each ``Core.request_frequency`` call — including redundant ones — must
carry the identical float, event by event, and end-of-run meter totals
must match bitwise. The randomized sweep below drives the scalar,
Python-kernel and (when the library builds) native C paths through
seeded random event sequences covering bursts, profiler-window
evictions, overload, empty-queue churn, ``n == 1``, and queues past
``max_explicit``; dedicated regressions pin the hopeless/overload
nominal floor and mid-run trimmer-target shrink.

The native path is the C span loop (``repro/core/_native/session.py``),
the only way Rubik runs in C: it serves a whole run on an unpatched
core, so its leg records no ``request_frequency`` calls and is compared
through the decision log C keeps (one double per decision). It joins
the sweep automatically when its shared library is available; on boxes
without a C compiler the sweep degrades to the two Python paths and the
``native``-marked canaries report the gap as skips. Cases a span cannot
run — hand-set tables, or a nominal frequency off the grid — keep their
two Python legs.
"""

import dataclasses
import math

import pytest

from repro.core._native import available as native_available
from repro.core.controller import Rubik
from repro.core.decision_kernel import (
    CERT_MIN_QUEUE,
    DecisionKernel,
    KernelStats,
)
from repro.core.histogram import Histogram
from repro.core.tail_tables import TargetTailTables
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.schemes.base import SchemeContext
from repro.sim.arrivals import LoadSchedule
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request
from repro.sim.server import run_trace, serve
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, MASSTREE, MOSES, SPECJBB

_NATIVE = native_available()
skip_without_native = pytest.mark.skipif(
    not _NATIVE, reason="native Rubik kernel library unavailable")

#: ``Rubik(path=...)`` per decision path. The native C path is appended
#: only when its library loads, so the sweep keeps pinning the two
#: Python paths on compiler-less boxes.
PATHS = {
    "scalar": dict(path="scalar"),
    "kernel": dict(path="kernel"),
}
if _NATIVE:
    PATHS["native"] = dict(path="auto")

#: The paths that evaluate Eq. 2 per event in Python: the only ones for
#: runs driven by hand, which the span loop cannot serve.
PYTHON_PATHS = ("scalar", "kernel")


@pytest.mark.native
@skip_without_native
def test_native_path_joins_the_sweep():
    """Canary: with the library available, every sweep below is 3-path.

    Without it this skips — making the 2-path degradation visible in
    the test report instead of silently shrinking coverage.
    """
    assert "native" in PATHS
    ctx = make_context(MASSTREE, 3, 300)
    trace = Trace.generate_at_load(MASSTREE, 0.5, 300, 3)
    _, _, rubik = run_decisions(trace, Rubik(), ctx)
    assert rubik.decision_path == "native"


def run_decisions(trace, rubik, context):
    """Drive ``rubik`` over ``trace`` recording every frequency request.

    Returns (calls, core, rubik): ``calls`` is the exact sequence of
    floats the controller's decisions request, redundant requests
    included. A run the span loop serves (``path="auto"`` with the
    library loaded) runs on an unpatched core, and its calls are the
    session's decision log; any other run records the floats passed to
    ``Core.request_frequency``.
    """
    sim = Simulator()
    core = Core(sim, context.dvfs, DEFAULT_CORE_POWER)
    rubik.setup(sim, core, context)
    session = rubik.native_session(sim, core, trace)
    if session is not None:
        session.run()
        core.finalize(settle_dvfs=True)
        calls = session._decision_log[:session._st.decision_count].tolist()
        return calls, core, rubik
    calls = []
    orig = core.request_frequency

    def recorder(f_hz):
        calls.append(f_hz)
        orig(f_hz)

    core.request_frequency = recorder
    for req in trace.to_requests():
        sim.schedule_entry(req.arrival_time,
                           (lambda r=req: core.enqueue(r)), priority=1)
    sim.run()
    core.finalize(settle_dvfs=True)
    return calls, core, rubik


def meter_totals(core):
    meter = core.meter
    return (meter.energy_j, meter.active_energy_j, meter.idle_energy_j,
            meter.busy_time_s, meter.busy_frequency_histogram())


def assert_paths_equivalent(trace, context, **rubik_kwargs):
    """Every path in PATHS: identical request sequences + meter totals."""
    results = {}
    for name, flags in PATHS.items():
        calls, core, rubik = run_decisions(
            trace, Rubik(**flags, **rubik_kwargs), context)
        assert rubik.decision_path == name  # the named path served it
        results[name] = (calls, meter_totals(core), rubik)
    scalar_calls, scalar_meter, _ = results["scalar"]
    assert scalar_calls, "no decisions recorded"
    for name in results:
        if name == "scalar":
            continue
        calls, meter, _ = results[name]
        assert calls == scalar_calls, \
            f"{name} diverged from the scalar oracle"
        assert meter == scalar_meter  # bitwise: exact float tuple/dict
    if "native" in results:
        # The native kernel mirrors the Python kernel's branch counters
        # exactly — same decisions, same fast/fold/invalidation split.
        k_stats = results["kernel"][2].kernel_stats
        n_stats = results["native"][2].kernel_stats
        assert n_stats is not None and k_stats is not None
        assert n_stats.as_dict() == k_stats.as_dict()
    return results


class TestRandomizedDecisionOracle:
    """Seeded random event sequences through every decision path."""

    @pytest.mark.parametrize("seed", range(6))
    def test_moderate_load(self, seed):
        ctx = make_context(MASSTREE, seed, 700)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 700, seed)
        res = assert_paths_equivalent(trace, ctx)
        stats = res["kernel"][2].kernel_stats
        assert stats.decisions == 1400  # one per arrival + completion

    @pytest.mark.parametrize("seed", range(5))
    def test_low_load_empty_queue_churn(self, seed):
        """n == 1 / empty-queue alternation (the min-frequency path)."""
        ctx = make_context(MASSTREE, seed, 400)
        trace = Trace.generate_at_load(MASSTREE, 0.12, 400, seed)
        res = assert_paths_equivalent(trace, ctx)
        calls = res["kernel"][0]
        assert ctx.dvfs.min_hz in calls  # empty-queue decisions occurred

    @pytest.mark.parametrize("seed", range(5))
    def test_overload_deep_queues(self, seed):
        """Sustained overload: deep queues, hopeless floor, max pinning."""
        ctx = make_context(MASSTREE, seed, 500)
        trace = Trace.generate_at_load(MASSTREE, 1.5, 500, seed)
        res = assert_paths_equivalent(trace, ctx)
        stats = res["kernel"][2].kernel_stats
        assert stats.cert_folds > 0  # deep queues exercised the cert path
        assert stats.fast_arrivals + stats.fast_completions > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_burst_schedule(self, seed):
        """Load steps 0.2 -> 1.6 -> 0.3: queue build-up and drain."""
        app = MASSTREE
        n = 600
        schedule = LoadSchedule.from_loads(
            [(0.0, 0.2), (0.05, 1.6), (0.15, 0.3)], app.saturation_qps)
        trace = Trace.generate(app, schedule, n, seed)
        ctx = make_context(app, seed, n)
        res = assert_paths_equivalent(trace, ctx)
        stats = res["kernel"][2].kernel_stats
        assert stats.fast_arrivals + stats.fast_completions > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_deep_queue_past_max_explicit(self, seed):
        """Queues past the explicit columns exercise the CLT extension."""
        ctx = make_context(MASSTREE, seed, 400)
        trace = Trace.generate_at_load(MASSTREE, 1.3, 400, seed)
        assert_paths_equivalent(trace, ctx, max_explicit=4)

    @pytest.mark.parametrize("seed", range(5))
    def test_profiler_evictions_and_frequent_refresh(self, seed):
        """A tiny profiler window forces constant evictions and table
        fingerprint churn; a short update period forces refreshes."""
        ctx = make_context(SPECJBB, seed, 500)
        trace = Trace.generate_at_load(SPECJBB, 0.6, 500, seed)
        res = assert_paths_equivalent(
            trace, ctx, profiler_window=48, min_samples=16,
            update_period_s=0.01)
        stats = res["kernel"][2].kernel_stats
        assert stats.invalidations_tables > 0  # refreshes swapped tables

    @pytest.mark.parametrize("app,load,seed", [
        (MOSES, 0.3, 9),      # long requests, mixed rows (PR 5 regression)
        (MOSES, 1.1, 2),
        (SPECJBB, 0.9, 4),    # high-variability service times
    ])
    def test_app_coverage(self, app, load, seed):
        ctx = make_context(app, seed, 500)
        trace = Trace.generate_at_load(app, load, 500, seed)
        assert_paths_equivalent(trace, ctx)

    def test_no_feedback_variant(self):
        ctx = make_context(MASSTREE, 3, 500)
        trace = Trace.generate_at_load(MASSTREE, 0.7, 500, 3)
        assert_paths_equivalent(trace, ctx, feedback=False)

    @pytest.mark.parametrize("latency_s", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", range(3))
    def test_dvfs_latency_override(self, latency_s, seed):
        """``run_trace(dvfs_config=...)`` overrides the context's
        transition latency on every path, the native span loop
        included."""
        ctx = make_context(MASSTREE, seed, 700)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 700, seed)
        dvfs = dataclasses.replace(ctx.dvfs, transition_latency_s=latency_s)
        runs = {name: run_trace(trace, Rubik(**flags), ctx,
                                dvfs_config=dvfs, record_freq_history=True)
                for name, flags in PATHS.items()}
        scalar = runs["scalar"]
        assert scalar.dvfs_transitions > 0
        for name, run in runs.items():
            assert run.freq_history == scalar.freq_history, name
            assert run.energy_j == scalar.energy_j, name
            assert list(run.response_times(include_warmup=True)) == \
                list(scalar.response_times(include_warmup=True)), name


class TestHopelessOverloadFloor:
    """The any_hopeless -> nominal-Hz stability floor, every path."""

    def _hopeless_tables(self):
        # Memory tail far above any achievable bound: every request is
        # hopeless the moment it arrives.
        return TargetTailTables(
            Histogram.point_mass(1e6, bucket_width=1e4),
            Histogram.point_mass(5e-3, bucket_width=1e-4))

    @pytest.mark.parametrize("path", PYTHON_PATHS)
    def test_fully_hopeless_queue_floors_at_nominal(self, path):
        ctx = SchemeContext(latency_bound_s=1e-4)
        sim = Simulator()
        core = Core(sim, ctx.dvfs, DEFAULT_CORE_POWER)
        calls = []
        orig = core.request_frequency
        core.request_frequency = lambda f: (calls.append(f), orig(f))[1]
        rubik = Rubik(**PATHS[path], feedback=False)
        rubik.setup(sim, core, ctx)
        rubik.tables = self._hopeless_tables()  # profiler stays not-ready
        for k in range(5):
            sim.schedule_entry(
                1e-5 * (k + 1),
                (lambda i=k: core.enqueue(Request(
                    rid=i, arrival_time=sim.now,
                    compute_cycles=1e6, memory_time_s=5e-3))),
                priority=1)
        sim.run(until=2e-5 * 5)
        # No request completes within the horizon, so every decision saw
        # a fully-hopeless queue: required_hz is unconstrained and must
        # floor at nominal, not park at min (the overload death spiral).
        assert len(calls) == 5
        assert all(f == ctx.dvfs.nominal_hz for f in calls)

    def test_fully_hopeless_equivalence_all_paths(self):
        per_path = {}
        for path in PYTHON_PATHS:
            ctx = SchemeContext(latency_bound_s=1e-4)
            sim = Simulator()
            core = Core(sim, ctx.dvfs, DEFAULT_CORE_POWER)
            calls = []
            orig = core.request_frequency
            core.request_frequency = lambda f, _c=calls, _o=orig: (
                _c.append(f), _o(f))[1]
            rubik = Rubik(**PATHS[path], feedback=False)
            rubik.setup(sim, core, ctx)
            rubik.tables = self._hopeless_tables()
            for k in range(8):
                sim.schedule_entry(
                    2e-5 * (k + 1),
                    (lambda i=k: core.enqueue(Request(
                        rid=i, arrival_time=sim.now,
                        compute_cycles=1e6, memory_time_s=5e-3))),
                    priority=1)
            sim.run()
            core.finalize(settle_dvfs=True)
            per_path[path] = calls
        for path in per_path:
            assert per_path[path] == per_path["scalar"], path
        assert SchemeContext(latency_bound_s=1e-4).dvfs.nominal_hz in \
            per_path["scalar"]

    @pytest.mark.parametrize("seed", range(3))
    def test_overload_floor_engages_in_traced_runs(self, seed):
        """Overload traces must hit the nominal floor identically."""
        ctx = make_context(MASSTREE, seed, 400)
        trace = Trace.generate_at_load(MASSTREE, 2.0, 400, seed)
        res = assert_paths_equivalent(trace, ctx)
        assert ctx.dvfs.nominal_hz in res["scalar"][0]

    @pytest.mark.parametrize("seed", (0, 1))
    def test_midrun_trimmer_target_shrink(self, seed):
        """Feedback trims the internal target mid-run (including after a
        load step into overload); every path must track it identically,
        and the kernel must see target invalidations."""
        app = MASSTREE
        n = 1200
        schedule = LoadSchedule.from_loads(
            [(0.0, 0.4), (0.4, 1.8)], app.saturation_qps)
        trace = Trace.generate(app, schedule, n, seed)
        ctx = make_context(app, seed, n)
        res = assert_paths_equivalent(trace, ctx, feedback=True)
        rubik = res["kernel"][2]
        assert rubik.trimmer is not None
        # The trimmer actually moved the internal target at least once...
        assert rubik.trimmer.internal_target_s != ctx.latency_bound_s
        # ...and the kernel noticed (certificate state invalidated).
        assert rubik.kernel_stats.invalidations_target > 0


class TestPathBinding:
    """``Rubik(path=...)`` is fixed at construction; setup() binds a
    Python evaluator and only ``native_session`` serves a run in C."""

    def test_property_rebinding(self):
        r = Rubik()
        assert r.path == "auto"
        # Nothing has run yet, so nothing reports a path.
        assert r.decision_path is None and r.kernel_stats is None
        assert r._decide is None
        with pytest.raises(AttributeError):
            r.path = "scalar"  # fixed for the controller's lifetime
        ctx = SchemeContext(latency_bound_s=1e-3)
        sim = Simulator()
        r.setup(sim, Core(sim, ctx.dvfs, DEFAULT_CORE_POWER), ctx)
        assert r.decision_path == "kernel"  # until a session serves it
        assert type(r._decide.__self__) is DecisionKernel
        assert r.kernel_stats is r._decide.__self__.stats
        scalar = Rubik(path="scalar")
        scalar.setup(sim, Core(sim, ctx.dvfs, DEFAULT_CORE_POWER), ctx)
        assert scalar.decision_path == "scalar"
        assert scalar._decide.__func__ is Rubik._update_frequency_scalar

    def test_kernel_mode_validation(self):
        for bad in ("native", "vectorized", "", None, True, False, 1):
            with pytest.raises(ValueError):
                Rubik(path=bad)
        with pytest.raises(TypeError):
            Rubik(kernel=True)  # only `path` selects the decision path
        with pytest.raises(TypeError):
            Rubik(vectorized=False)

    def test_first_kernel_decide_rebinds_to_kernel(self):
        """setup() binds ``_decide`` straight to the kernel's own
        ``decide`` (no per-event dispatch hop)."""
        ctx = make_context(MASSTREE, 3, 300)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 300, 3)
        _, _, rubik = run_decisions(trace, Rubik(path="kernel"), ctx)
        kernel = rubik._decide.__self__
        assert type(kernel) is DecisionKernel
        assert rubik._decide == kernel.decide

    @pytest.mark.native
    @skip_without_native
    def test_ineligible_native_run_uses_python_kernel(self):
        """On a machine with the library, a run the span loop cannot
        serve (a recorder patched over ``request_frequency``) is served
        by the Python kernel, and says so."""
        ctx = make_context(MASSTREE, 3, 300)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 300, 3)
        sim = Simulator()
        core = Core(sim, ctx.dvfs, DEFAULT_CORE_POWER)
        calls = []
        orig = core.request_frequency
        core.request_frequency = lambda f: (calls.append(f), orig(f))[1]
        rubik = Rubik()
        serve(sim, core, rubik, ctx, trace)
        assert rubik.decision_path == "kernel"
        assert type(rubik._decide.__self__) is DecisionKernel
        assert rubik.kernel_stats.decisions == len(calls) == 600


class TestKernelInternals:
    def test_kernel_stats_exposed_like_refresh_stats(self):
        ctx = make_context(MASSTREE, 3, 400)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 400, 3)
        _, _, rubik = run_decisions(trace, Rubik(), ctx)
        stats = rubik.kernel_stats
        assert isinstance(stats, KernelStats)
        d = stats.as_dict()
        # decisions is defined as the branch-counter sum; the
        # independent check is against the event count (one decision per
        # arrival + one per completion — a branch that forgot its
        # counter would make the total come up short).
        assert d["decisions"] == stats.decisions == 800

    def test_kernel_stats_none_when_kernel_off(self):
        ctx = make_context(MASSTREE, 3, 200)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 200, 3)
        _, _, rubik = run_decisions(trace, Rubik(path="scalar"), ctx)
        assert rubik.kernel_stats is None

    def test_steady_state_refresh_carries_kernel_state(self):
        """Constant demand: every post-warmup refresh re-resolves to the
        same table pair, so the kernel is never invalidated by one."""
        import dataclasses as dc
        app = dc.replace(MASSTREE, service_cv=0.0, long_fraction=0.0)
        ctx = make_context(app, 21, 800)
        trace = Trace.generate_at_load(app, 0.5, 800, 21)
        _, _, rubik = run_decisions(trace, Rubik(), ctx)
        stats = rubik.kernel_stats
        assert stats.invalidations_tables <= 1
        # The window normalizes to one fingerprint: at most one rebuild,
        # every other refresh a cache hit.
        refresh = rubik.refresh_stats
        assert refresh.snapshots >= 2
        assert refresh.cache_misses <= 1
        assert refresh.cache_hits == refresh.snapshots - refresh.cache_misses

    def test_cert_threshold_boundary(self):
        """Depths straddling CERT_MIN_QUEUE stay decision-equivalent."""
        assert CERT_MIN_QUEUE >= 2
        ctx = make_context(MASSTREE, 17, 500)
        # A load that hovers around the threshold depth.
        trace = Trace.generate_at_load(MASSTREE, 0.95, 500, 17)
        assert_paths_equivalent(trace, ctx)

    def test_kernel_rebuilt_per_setup(self):
        """setup() must drop the previous run's kernel (stale DVFS grid
        and stale epochs would otherwise leak across runs); the oracle
        is a reused scalar controller."""
        ctx = make_context(MASSTREE, 3, 300)
        trace = Trace.generate_at_load(MASSTREE, 0.5, 300, 3)
        kern = Rubik(path="kernel")
        scal = Rubik(path="scalar")
        run_decisions(trace, kern, ctx)
        run_decisions(trace, scal, ctx)
        first = kern._decide.__self__
        calls_k, _, _ = run_decisions(trace, kern, ctx)
        calls_s, _, _ = run_decisions(trace, scal, ctx)
        assert kern._decide.__self__ is not first  # rebuilt by setup()
        assert calls_k == calls_s

    def test_quantized_nominal_floor_on_offgrid_nominal(self):
        """A nominal frequency off the grid floors at quantize_up of it,
        identically across paths."""
        from repro.config import DvfsConfig
        grid = (8e8, 1.2e9, 1.6e9, 2.0e9, 2.6e9, 3.4e9)
        dvfs = DvfsConfig(frequencies=grid, nominal_hz=2.4e9)
        ctx = SchemeContext(latency_bound_s=1e-4, dvfs=dvfs)
        per_path = {}
        for path in PYTHON_PATHS:
            sim = Simulator()
            core = Core(sim, dvfs, DEFAULT_CORE_POWER, initial_hz=3.4e9)
            calls = []
            orig = core.request_frequency
            core.request_frequency = lambda f, _c=calls, _o=orig: (
                _c.append(f), _o(f))[1]
            rubik = Rubik(**PATHS[path], feedback=False)
            rubik.setup(sim, core, ctx)
            rubik.tables = TargetTailTables(
                Histogram.point_mass(1e6, bucket_width=1e4),
                Histogram.point_mass(5e-3, bucket_width=1e-4))
            for k in range(6):
                sim.schedule_entry(
                    2e-5 * (k + 1),
                    (lambda i=k: core.enqueue(Request(
                        rid=i, arrival_time=sim.now,
                        compute_cycles=1e6, memory_time_s=5e-3))),
                    priority=1)
            sim.run()
            core.finalize(settle_dvfs=True)
            per_path[path] = calls
        for path in per_path:
            assert per_path[path] == per_path["scalar"], path
        assert 2.6e9 in per_path["scalar"]  # quantized-up nominal floor
