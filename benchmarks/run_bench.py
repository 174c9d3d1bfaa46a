"""Hot-path benchmark harness — the repo's tracked perf trajectory.

Times the three layers the paper's microsecond-scale claims rest on and
writes one ``BENCH_PR<n>.json`` per PR so regressions are visible across
the repo's history:

* ``table_build``: :class:`~repro.core.tail_tables.TargetTailTables`
  construction (the paper's ~0.2 ms periodic refresh), both lazily (as
  the controller uses it) and fully materialized.
* ``controller_events``: end-to-end event rate of a Rubik-controlled
  simulation (arrivals + completions + DVFS transitions per second of
  wall-clock).
* ``load_sweep``: wall-clock of an end-to-end Fig. 9 load sweep for one
  app (all five schemes per load) — the repo's headline experiment
  benchmark.
* ``regenerate``: the unified experiment-runner flow
  (:func:`repro.experiments.runner.regenerate`) over a driver subset at
  reduced scale — one shared worker pool, memoized latency bounds — the
  regeneration-matrix counterpart of ``load_sweep``.
* ``refresh_churn``: the PR 4 refresh subsystem — cold-vs-warm runs of
  the identical trace through the process-wide ``TailTableCache``, a
  steady-state (constant-demand) run whose snapshot fingerprint never
  moves, and the incremental-vs-rebuild snapshot micro-benchmark.
* ``decision_kernel``: the PR 5 incremental Eq. 2 kernel — same-trace
  walls of the scalar/kernel/native decision paths at moderate load
  and in overload (where the O(1) event paths dominate), the kernel's
  decision-path counters, and the steady-state constant-demand guard
  (refreshes must carry kernel state, never invalidate it). The native
  C path joins the A/B when its library builds.
* ``native_kernel``: the PR 6 native C decision/event kernel — build
  time and fallback status from the build-on-first-use loader, span
  engagement + decision counters of a default run, and the native
  path's same-run speedups over the Python kernel and the scalar path.
* ``regenerate_cached``: the PR 7 content-addressed artifact store —
  the same regenerate subset cold (empty store: every cell computes and
  persists) then warm (every cell replays from disk), with the store's
  hit/miss/put counters for both runs. The headline is the warm wall: a
  fully-cached regeneration must recompute zero cells.
* ``resilience``: the PR 9 resilient executor — a fig06-shaped cell
  sweep through plain ``parallel_map`` and then ``resilient_map`` under
  the default ``RetryPolicy`` with no fault plan active. The guard is
  the contract, not a speedup: bitwise-identical results, all-zero
  retry/failure/rebuild counters, and small overhead over the baseline
  dispatch.
* ``fleet``: the PR 10 sharded fleet — power-curve calibration (anchor
  simulation cells) timed once against a throwaway artifact store, then
  the routed cluster scenario at each tracked size with the anchors
  warm, so the per-size wall measures placement + routing +
  integration (interpolation, not simulation) and reports
  servers-per-second. The shard-scaling A/B times 1 vs 2 shards at the
  largest size and asserts the two results bitwise-identical
  (invariant 21 — the layer's whole point).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full, writes BENCH_PR1.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # <60 s smoke, no file by default
    PYTHONPATH=src python benchmarks/run_bench.py --output out.json

The ``--quick`` mode runs the same benchmarks at reduced scale; a pytest
smoke test (``benchmarks/test_perf_smoke.py``, marker ``perf_smoke``)
drives it in the tier-1 flow so harness breakage is caught without
running full figures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.core._native import build as native_build
from repro.core.controller import Rubik
from repro.lint import lint_paths
from repro.core.histogram import Histogram
from repro.core.profiler import DemandProfiler
from repro.core.table_cache import TABLE_CACHE
from repro.core.tail_tables import TargetTailTables
from repro.experiments import artifacts, runner
from repro.experiments.common import _compare_seed, latency_bound, make_context
from repro.experiments.fig09_load_sweep import run_load_sweep
from repro.perf import parallel_map, pools_created
from repro.fleet import build_power_curves, run_routed_fleet
from repro.resilience import RetryPolicy, SweepStats, faults, resilient_map
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import APPS

#: Which PR this bench file tracks (bump per perf-relevant PR).
PR_NUMBER = 10

#: Events-per-request ceiling for the Rubik run: one arrival + one
#: completion per request and nothing else (DVFS transitions no longer
#: consume simulator events). The perf_smoke guard fails if event churn
#: creeps back in.
EVENTS_PER_REQUEST_BUDGET = 2.05

BENCH_APP = "masstree"
BENCH_SEED = 21

FULL = {
    "table_reps": 30,
    "run_requests": 4000,
    "run_load": 0.5,
    "sweep_loads": (0.2, 0.4, 0.5, 0.6, 0.8),
    "sweep_requests": 4000,
    "regen_experiments": ("fig06", "table1", "ablations"),
    "regen_requests": 800,
    "resilience_requests": 400,
    "snapshot_iters": 300,
    "fleet_servers": (500, 2000),
    "fleet_epochs": 6,
    "fleet_rpc": 400,
}
QUICK = {
    "table_reps": 5,
    "run_requests": 1200,
    "run_load": 0.5,
    "sweep_loads": (0.3, 0.6),
    "sweep_requests": 1200,
    "regen_experiments": ("table1", "ablations"),
    "regen_requests": 600,
    "resilience_requests": 200,
    "snapshot_iters": 60,
    "fleet_servers": (60, 150),
    "fleet_epochs": 3,
    "fleet_rpc": 100,
}


def _lognormal_hist(seed: int, mean: float, cv: float,
                    n: int = 2000) -> Histogram:
    sigma2 = math.log(1 + cv * cv)
    mu = math.log(mean) - sigma2 / 2
    samples = np.random.default_rng(seed).lognormal(
        mu, math.sqrt(sigma2), n)
    return Histogram.from_samples(samples)


def _best_of(fn: Callable[[], None], reps: int) -> float:
    """Best wall-clock of ``reps`` runs (least-noise estimator)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_table_build(reps: int) -> Dict[str, float]:
    """Tail-table refresh cost: lazy (controller-visible) and full."""
    cycles_samples = _lognormal_hist(0, 1e6, 0.3)
    memory_samples = _lognormal_hist(1, 1e-4, 0.3)

    lazy_s = _best_of(
        lambda: TargetTailTables(cycles_samples, memory_samples), reps)

    def full_build() -> None:
        tables = TargetTailTables(cycles_samples, memory_samples)
        tables.cycles.materialize()
        tables.memory.materialize()

    full_s = _best_of(full_build, reps)
    return {
        "lazy_pair_ms": lazy_s * 1e3,
        "materialized_pair_ms": full_s * 1e3,
        "materialized_builds_per_s": 1.0 / full_s,
    }


def bench_controller_events(num_requests: int, load: float,
                            reps: int = 3) -> Dict[str, float]:
    """Event-processing rate of one Rubik-controlled run.

    Best-of-``reps`` wall clock (same estimator as the table bench — a
    single cold run was noise-dominated on shared machines); the event
    count is deterministic, so it comes from the last run. The cache is
    cleared once up front, so rep 1 pays cold table builds and reps 2+
    run fingerprint-warm — best-of therefore tracks the steady-state
    (reuse) path, which is the refresh subsystem's operating point; the
    ``refresh_churn`` section reports cold and warm walls separately.
    """
    app = APPS[BENCH_APP]
    context = make_context(app, BENCH_SEED, num_requests)
    trace = Trace.generate_at_load(app, load, num_requests, BENCH_SEED)
    TABLE_CACHE.clear()
    wall = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_trace(trace, Rubik(), context)
        wall = min(wall, time.perf_counter() - t0)
    return {
        "wall_s": wall,
        "reps": reps,
        "events": result.events_processed,
        "events_per_request": result.events_processed / num_requests,
        "events_per_s": result.events_processed / wall,
        "requests_per_s": len(result.requests) / wall,
    }


def bench_load_sweep(loads, num_requests: int) -> Dict[str, float]:
    """End-to-end Fig. 9 sweep for one app (all five schemes per load)."""
    t0 = time.perf_counter()
    run_load_sweep(BENCH_APP, loads=loads, num_requests=num_requests,
                   seed=BENCH_SEED)
    return {"wall_s": time.perf_counter() - t0, "points": len(loads)}


def bench_regenerate(experiments, num_requests: int) -> Dict[str, float]:
    """The unified experiment-runner flow over a driver subset.

    Times ``runner.regenerate`` (reports suppressed — stdout is not the
    thing being measured) and records the subsystem's two structural
    guarantees alongside the wall-clock: how many worker pools the flow
    spawned (at most one; zero on a single-CPU machine, where everything
    stays on the serial path) and how many latency-bound replays the
    memo actually ran vs. how many call sites asked. The bound counts
    come from this process's cache, so they describe the full flow only
    when it stayed serial; once a pool spawns, each worker holds its own
    (uninstrumented) cache, and the counts are reported as ``None``
    rather than pretending the parent saw everything.
    """
    latency_bound.cache_clear()
    pools_before = pools_created()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        reports = runner.regenerate(experiments, num_requests=num_requests)
    wall = time.perf_counter() - t0
    pools = pools_created() - pools_before
    bounds = latency_bound.cache_info()
    serial = pools == 0
    return {
        "wall_s": wall,
        "experiments": list(reports),
        "pools_created": pools,
        "latency_bound_computed": bounds.misses if serial else None,
        "latency_bound_requested":
            bounds.misses + bounds.hits if serial else None,
    }


def bench_regenerate_cached(experiments, num_requests: int) -> Dict:
    """The PR 7 artifact store: cold fill vs warm replay.

    Runs the same ``regenerate`` subset twice against a store rooted in
    a throwaway temp directory (the on-disk store under test, without
    touching the developer's ``.repro-artifacts/``): the cold pass
    computes and persists every cell, the warm pass must serve every
    cell from disk (zero misses, zero puts — the ``perf_smoke`` guard).
    The memoized latency bound is cleared before each pass so the warm
    wall measures the store, not the in-process memo.
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = artifacts.ArtifactStore(Path(tmp))
        with artifacts.activate(store):
            def one_pass() -> float:
                latency_bound.cache_clear()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    runner.regenerate(experiments,
                                      num_requests=num_requests)
                return time.perf_counter() - t0

            cold_wall = one_pass()
            cold = store.stats()
            store.reset_stats()
            warm_wall = one_pass()
            warm = store.stats()
    counter_keys = ("hits", "misses", "puts", "errors")
    return {
        "experiments": list(experiments),
        "cells": cold["puts"],
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup_vs_cold": cold_wall / warm_wall,
        "cold": {k: cold[k] for k in counter_keys},
        "warm": {k: warm[k] for k in counter_keys},
        "warm_per_driver": warm["per_driver"],
    }


def bench_resilience(num_requests: int) -> Dict:
    """The PR 9 resilient executor: fault-free cost of the hardening.

    Runs the same fig06-shaped cell list through plain ``parallel_map``
    and then :func:`repro.resilience.resilient_map` under the default
    :class:`~repro.resilience.RetryPolicy` with no fault plan active
    (the section records that, so a trajectory point taken with
    ``REPRO_FAULT_PLAN`` exported is self-incriminating). The
    ``perf_smoke`` guard pins the contract: bitwise-identical results,
    all-zero executor counters, small dispatch overhead. A warm-up pass
    runs first so both timed passes see the same warm table cache.
    """
    points = [(APPS[name], load, BENCH_SEED, num_requests, ("Rubik",))
              for name in ("masstree", "xapian") for load in (0.3, 0.5)]
    parallel_map(_compare_seed, points)  # warm caches for both passes

    t0 = time.perf_counter()
    baseline = parallel_map(_compare_seed, points)
    baseline_wall = time.perf_counter() - t0

    stats = SweepStats()
    t0 = time.perf_counter()
    hardened = resilient_map(_compare_seed, points,
                             policy=RetryPolicy(), stats=stats)
    resilient_wall = time.perf_counter() - t0

    return {
        "points": len(points),
        "fault_plan_active": faults.active_plan() is not None,
        "baseline_wall_s": baseline_wall,
        "resilient_wall_s": resilient_wall,
        "overhead_vs_baseline": resilient_wall / baseline_wall,
        "identical": hardened == baseline,
        "retries": stats.retries,
        "failures": stats.failures,
        "timeouts": stats.timeouts,
        "worker_losses": stats.worker_losses,
        "pool_rebuilds": stats.pool_rebuilds,
        "degraded_serial": stats.degraded_serial,
    }


def bench_fleet(sizes, num_epochs: int, requests_per_core: int) -> Dict:
    """The PR 10 sharded fleet: cluster-scenario throughput + invariance.

    Calibration (the per-(app, anchor-load) simulation cells behind the
    power curves) is timed once against a throwaway artifact store;
    every scenario run afterwards replays those anchors from disk, so
    the per-size walls measure what the layer claims is cheap —
    placement draws, routing epochs, and vectorized integration — and
    the ``servers_per_s`` figures scale with fleet size instead of
    being flat-dominated by the fixed simulation cost. The shard A/B at
    the largest size reruns the scenario with 2 shards (different cell
    fingerprints, so both sides compute their shards live) and asserts
    the result bitwise-identical to the 1-shard reference
    (invariant 21); ``perf_smoke`` pins that flag.
    """
    sizes = tuple(sizes)
    with tempfile.TemporaryDirectory() as tmp:
        store = artifacts.ArtifactStore(Path(tmp))
        with artifacts.activate(store):
            t0 = time.perf_counter()
            build_power_curves(BENCH_SEED, requests_per_core)
            calibration_wall = time.perf_counter() - t0
            anchor_cells = store.stats()["puts"]

            scale: Dict[str, Dict] = {}
            results = {}
            for n in sizes:
                t0 = time.perf_counter()
                result = run_routed_fleet(
                    num_servers=n, seed=BENCH_SEED,
                    num_epochs=num_epochs, num_shards=1,
                    requests_per_core=requests_per_core)
                wall = time.perf_counter() - t0
                results[n] = result
                scale[str(n)] = {
                    "wall_s": wall,
                    "servers_per_s": n / wall,
                    "energy_savings_frac": result.energy_savings_frac,
                    "overloaded_servers": result.overloaded_servers,
                    "baseline_shed_load": result.baseline_shed_load,
                    "routed_shed_load": result.routed_shed_load,
                }

            largest = max(sizes)
            t0 = time.perf_counter()
            sharded = run_routed_fleet(
                num_servers=largest, seed=BENCH_SEED,
                num_epochs=num_epochs, num_shards=2,
                requests_per_core=requests_per_core)
            sharded_wall = time.perf_counter() - t0

    return {
        "num_epochs": num_epochs,
        "requests_per_core": requests_per_core,
        "calibration_wall_s": calibration_wall,
        "anchor_cells": anchor_cells,
        "scale": scale,
        "shard_scaling": {
            "servers": largest,
            "one_shard_wall_s": scale[str(largest)]["wall_s"],
            "two_shard_wall_s": sharded_wall,
            "identical": sharded.equals(results[largest]),
        },
    }


def _loop_time(fn: Callable[[], object], iters: int) -> float:
    """Mean wall-clock per call over ``iters`` calls (µs-scale probes)."""
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def bench_refresh_churn(num_requests: int, load: float,
                        snapshot_iters: int) -> Dict:
    """The PR 4 refresh subsystem, three ways.

    * **cold vs warm**: the identical trace twice through a cleared
      process-wide ``TailTableCache`` — the second run's refreshes are
      all fingerprint hits (repeated A/B runs, bench reps, and identical
      windows across experiment variants are the real-world shape).
    * **steady state**: a constant-demand (``service_cv=0``) variant of
      the bench app; its demand window normalizes to the same pmf at
      every refresh, so the run rebuilds tables exactly once and reuses
      thereafter (the ``perf_smoke`` guard).
    * **snapshot micro-bench**: the incremental profiler snapshot vs the
      from-scratch double pass every refresh paid through PR 3
      (``list()`` + ``Histogram.from_samples`` + ``max()`` per stream).
    """
    app = APPS[BENCH_APP]
    context = make_context(app, BENCH_SEED, num_requests)
    trace = Trace.generate_at_load(app, load, num_requests, BENCH_SEED)

    TABLE_CACHE.clear()
    TABLE_CACHE.reset_stats()
    cold_rubik = Rubik()
    t0 = time.perf_counter()
    run_trace(trace, cold_rubik, context)
    cold_wall = time.perf_counter() - t0
    warm_rubik = Rubik()
    t0 = time.perf_counter()
    run_trace(trace, warm_rubik, context)
    warm_wall = time.perf_counter() - t0

    steady_app = dataclasses.replace(app, service_cv=0.0, long_fraction=0.0)
    steady_context = make_context(steady_app, BENCH_SEED, num_requests)
    steady_trace = Trace.generate_at_load(
        steady_app, load, num_requests, BENCH_SEED)
    steady_rubik = Rubik()
    run_trace(steady_trace, steady_rubik, steady_context)

    profiler = DemandProfiler()
    rng = np.random.default_rng(5)
    for c, m in zip(rng.lognormal(13, 0.3, profiler.window),
                    rng.lognormal(-9, 0.3, profiler.window)):
        profiler.observe(float(c), float(m))
    incremental_s = _loop_time(profiler.snapshot, snapshot_iters)

    def rebuild_snapshot() -> None:
        # PR 3's snapshot, verbatim: re-bucket the full window twice.
        samples = list(profiler._cycles.samples)
        mem_samples = list(profiler._memory.samples)
        Histogram.from_samples(samples, profiler.num_buckets)
        if max(mem_samples) > 0:
            Histogram.from_samples(mem_samples, profiler.num_buckets)

    rebuild_s = _loop_time(rebuild_snapshot, snapshot_iters)

    return {
        "refreshes": cold_rubik.refresh_stats.snapshots,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup_vs_cold": cold_wall / warm_wall,
        "cold": cold_rubik.refresh_stats.as_dict(),
        "warm": warm_rubik.refresh_stats.as_dict(),
        "steady_state": steady_rubik.refresh_stats.as_dict(),
        "snapshot_incremental_us": incremental_s * 1e6,
        "snapshot_rebuild_us": rebuild_s * 1e6,
        "snapshot_speedup_vs_pr3": rebuild_s / incremental_s,
        "table_cache": TABLE_CACHE.stats(),
    }


def bench_decision_kernel(num_requests: int, load: float,
                          reps: int = 3) -> Dict:
    """The PR 5 incremental Eq. 2 decision kernel, three ways.

    * **path A/B**: the identical trace under the scalar, kernel, and
      (when the library builds) native decision paths, best-of-``reps``
      each with a fingerprint-warm table cache.
    * **overload A/B**: the same comparison on an overloaded trace
      (queue depths past ``CERT_MIN_QUEUE``), where the certificate
      fold + O(1) event paths are the operating point.
    * **counters**: the kernel's decision-path stats for both runs, and
      the steady-state constant-demand guard — every post-warmup
      refresh re-resolves to the same table pair, so the kernel must
      never be invalidated by one (``invalidations_tables <= 1``).
    """
    app = APPS[BENCH_APP]
    context = make_context(app, BENCH_SEED, num_requests)
    trace = Trace.generate_at_load(app, load, num_requests, BENCH_SEED)
    over_n = max(200, num_requests // 3)
    over_context = make_context(app, BENCH_SEED, over_n)
    over_trace = Trace.generate_at_load(app, 1.5, over_n, BENCH_SEED)
    TABLE_CACHE.clear()
    run_trace(trace, Rubik(), context)            # warm the table cache
    run_trace(over_trace, Rubik(), over_context)

    paths = {"scalar": "scalar", "kernel": "kernel"}
    if native_build.available():
        paths["native"] = "auto"
    walls: Dict[str, float] = {p: float("inf") for p in paths}
    over_walls: Dict[str, float] = {p: float("inf") for p in paths}
    kernel_stats: Dict[str, Dict] = {}
    for _ in range(reps):
        for path, selector in paths.items():
            rubik = Rubik(path=selector)
            t0 = time.perf_counter()
            run_trace(trace, rubik, context)
            walls[path] = min(walls[path], time.perf_counter() - t0)
            if path in ("kernel", "native"):
                kernel_stats[f"moderate_{path}"] = \
                    rubik.kernel_stats.as_dict()
            rubik = Rubik(path=selector)
            t0 = time.perf_counter()
            run_trace(over_trace, rubik, over_context)
            over_walls[path] = min(over_walls[path],
                                   time.perf_counter() - t0)
            if path in ("kernel", "native"):
                kernel_stats[f"overload_{path}"] = \
                    rubik.kernel_stats.as_dict()
    # Back-compat aliases: the Python kernel's counters under the PR 5
    # key names, so trajectory diffs line up across bench files.
    kernel_stats["moderate"] = kernel_stats["moderate_kernel"]
    kernel_stats["overload"] = kernel_stats["overload_kernel"]

    steady_app = dataclasses.replace(app, service_cv=0.0, long_fraction=0.0)
    steady_context = make_context(steady_app, BENCH_SEED, num_requests)
    steady_trace = Trace.generate_at_load(
        steady_app, load, num_requests, BENCH_SEED)
    steady_rubik = Rubik()
    run_trace(steady_trace, steady_rubik, steady_context)
    kernel_stats["steady_state"] = steady_rubik.kernel_stats.as_dict()

    out = {
        "moderate": {f"{p}_wall_s": w for p, w in walls.items()},
        "overload": {f"{p}_wall_s": w for p, w in over_walls.items()},
        "kernel_speedup_vs_scalar": walls["scalar"] / walls["kernel"],
        "overload_speedup_vs_scalar":
            over_walls["scalar"] / over_walls["kernel"],
        "kernel_stats": kernel_stats,
        "steady_refresh_stats": steady_rubik.refresh_stats.as_dict(),
    }
    if "native" in walls:
        out["native_speedup_vs_kernel"] = walls["kernel"] / walls["native"]
        out["overload_native_speedup_vs_kernel"] = \
            over_walls["kernel"] / over_walls["native"]
        out["overload_native_speedup_vs_scalar"] = \
            over_walls["scalar"] / over_walls["native"]
    return out


def bench_native_kernel(decision_kernel: Dict) -> Dict:
    """The PR 6 native C kernel: build/fallback status + headline walls.

    The A/B walls come from :func:`bench_decision_kernel` (same traces,
    same best-of estimator — no second measurement to drift from); this
    section adds the loader's build/fallback diagnostics, the span
    engagement proof of a default run (every decision must land in a
    counted branch of the native kernel), and the same-run ratios of
    the native walls to the Python kernel's and the scalar path's.
    """
    out: Dict[str, object] = {
        "available": native_build.available(),
        "build": native_build.build_info(),
    }
    if not native_build.available():
        out["fallback"] = "python kernel serves all dispatches"
        return out

    # Span engagement: a default (path="auto") run hands the whole
    # event loop to the C span kernel; the counters prove every decision
    # executed natively (one per arrival + one per completion).
    app = APPS[BENCH_APP]
    n = 600
    context = make_context(app, BENCH_SEED, n)
    trace = Trace.generate_at_load(app, 0.5, n, BENCH_SEED)
    rubik = Rubik()
    result = run_trace(trace, rubik, context)
    stats = rubik.kernel_stats.as_dict()
    out["span"] = {
        "decision_path": rubik.decision_path,
        "requests": len(result.requests),
        "decisions": stats["decisions"],
        "events_processed": result.events_processed,
        "kernel_stats": stats,
    }

    mod = decision_kernel["moderate"]
    over = decision_kernel["overload"]
    out["moderate_wall_s"] = mod["native_wall_s"]
    out["overload_wall_s"] = over["native_wall_s"]
    out["speedup_vs_kernel_moderate"] = \
        mod["kernel_wall_s"] / mod["native_wall_s"]
    out["speedup_vs_kernel_overload"] = \
        over["kernel_wall_s"] / over["native_wall_s"]
    out["speedup_vs_scalar_overload"] = \
        over["scalar_wall_s"] / over["native_wall_s"]
    return out


def check_lint() -> Dict:
    """Invariant-checker status of the shipped ``repro`` tree.

    A bench point records perf *under the repo's contracts* — a tree
    with open determinism/ABI/flush findings can be fast for the wrong
    reasons (e.g. a ctypes mirror drift changing every decision), so
    ``main`` refuses to record one. The section keeps the scan summary
    in the trajectory file and the ``perf_smoke`` guard asserts it.
    """
    result = lint_paths()
    return {
        "clean": result.clean,
        "findings": [f.render() for f in result.findings],
        "files_scanned": result.files_scanned,
        "rules_run": result.rules_run,
    }


def run_benchmarks(quick: bool = False) -> Dict:
    cfg = QUICK if quick else FULL
    results = {
        "pr": PR_NUMBER,
        "quick": quick,
        "lint": check_lint(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "table_build": bench_table_build(cfg["table_reps"]),
        "controller_events": bench_controller_events(
            cfg["run_requests"], cfg["run_load"]),
        "load_sweep": bench_load_sweep(
            cfg["sweep_loads"], cfg["sweep_requests"]),
        "regenerate": bench_regenerate(
            cfg["regen_experiments"], cfg["regen_requests"]),
        "regenerate_cached": bench_regenerate_cached(
            cfg["regen_experiments"], cfg["regen_requests"]),
        "resilience": bench_resilience(cfg["resilience_requests"]),
        "fleet": bench_fleet(cfg["fleet_servers"], cfg["fleet_epochs"],
                             cfg["fleet_rpc"]),
        "refresh_churn": bench_refresh_churn(
            cfg["run_requests"], cfg["run_load"], cfg["snapshot_iters"]),
        "decision_kernel": bench_decision_kernel(
            cfg["run_requests"], cfg["run_load"]),
    }
    results["native_kernel"] = bench_native_kernel(
        results["decision_kernel"])
    return results


def main(argv: Optional[list] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced-scale smoke mode (<60 s)")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_PR%d.json "
                             "at the repo root in full mode; none in "
                             "--quick mode)" % PR_NUMBER)
    args = parser.parse_args(argv)

    # Gate: never record a bench point for a tree that violates its own
    # invariants (python -m repro.lint shows the findings).
    lint = check_lint()
    if not lint["clean"]:
        for line in lint["findings"]:
            print(line, file=sys.stderr)
        raise SystemExit(
            f"refusing to record a bench point: {len(lint['findings'])} "
            "lint finding(s) — fix or suppress them first")

    results = run_benchmarks(quick=args.quick)
    print(json.dumps(results, indent=2))

    output = args.output
    if output is None and not args.quick:
        output = f"BENCH_PR{PR_NUMBER}.json"
    if output:
        with open(output, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {output}")
    return results


if __name__ == "__main__":
    main()
