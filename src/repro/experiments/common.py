"""Shared experiment methodology (paper Sec. 5.1--5.2).

Conventions used by every experiment module:

* **Latency bound**: the 95th-percentile latency of the fixed-frequency
  scheme at 50% load, measured on the same seed's demand stream the
  evaluation uses (demands are seed-determined and load-independent, so
  the bound tracks each trace's demand draw exactly as the paper's
  per-application measurement does).
* **Seeds**: every data point is averaged over ``DEFAULT_EVAL_SEEDS``
  independent runs (the paper runs each experiment until 95% confidence
  intervals are below 1%).
* **Training/evaluation split**: offline-tuned schemes (AdrenalineOracle)
  train on dedicated training seeds; per-trace oracles (StaticOracle,
  DynamicOracle) tune on the evaluation trace by definition.
* **Power savings**: relative to the fixed-frequency scheme at the same
  load, using time-averaged core power (the paper's "active core power").
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import NOMINAL_FREQUENCY_HZ
from repro.core.controller import Rubik
from repro.experiments import artifacts, configs
from repro.perf import parallel_map
from repro.resilience import CellFailure, SweepFailure, execution
from repro.schemes.adrenaline import AdrenalineOracle
from repro.schemes.base import SchemeContext
from repro.schemes.replay import ReplayResult, replay
from repro.schemes.static_oracle import StaticOracle
from repro.sim.server import RunResult, run_trace
from repro.sim.trace import Trace
from repro.workloads.base import AppProfile, check_load

#: Load at which the latency bound is defined (paper Sec. 5.2).
BOUND_LOAD = 0.5

#: Evaluation seeds per data point (canonical copy in configs.py).
DEFAULT_EVAL_SEEDS: Tuple[int, ...] = configs.EVAL_SEEDS

#: Seed offset separating training traces from evaluation traces.
TRAINING_SEED_OFFSET = 1000


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One declarative, fingerprintable experiment cell.

    A cell is the unit every driver dispatches: a module-level picklable
    worker ``fn`` plus the one argument tuple it receives. The driver
    name resolves the :class:`~repro.experiments.configs.DriverConfig`
    whose version tag scopes invalidation; the fingerprint is the
    content address the artifact store files the result under.
    """

    driver: str
    version: str
    fn: Callable[[Any], Any]
    args: Any

    @property
    def fingerprint(self) -> str:
        return artifacts.cell_fingerprint(
            self.driver, self.version, self.fn, self.args)


def make_cells(driver: str, fn: Callable[[Any], Any],
               items: Sequence[Any]) -> List[CellSpec]:
    """One :class:`CellSpec` per item, versioned by the driver config."""
    version = configs.CONFIGS[driver].version
    return [CellSpec(driver, version, fn, item) for item in items]


def _compute_batch(fn: Callable[[Any], Any], batch: Sequence[Any],
                   indices: Sequence[int],
                   processes: Optional[int]) -> List[Any]:
    """Dispatch one batch of cells under the active policy (strict
    without one: the first failure raises). Failures come back as
    :class:`~repro.resilience.CellFailure` objects re-indexed to the
    *original* cell positions (the executor numbers within the batch it
    was handed)."""
    computed = execution.map_cells(fn, batch, processes=processes)
    return [dataclasses.replace(v, index=indices[j])
            if isinstance(v, CellFailure) else v
            for j, v in enumerate(computed)]


def _raise_if_failed(driver: str, results: Sequence[Any]) -> None:
    failures = [r for r in results if isinstance(r, CellFailure)]
    if failures:
        raise SweepFailure(driver, failures, len(results))


def run_cells(driver: str, fn: Callable[[Any], Any],
              items: Sequence[Any],
              processes: Optional[int] = None) -> List[Any]:
    """``[fn(x) for x in items]`` through the artifact store.

    The store-free, policy-free path is exactly
    :func:`repro.perf.parallel_map` (bitwise-pinned by the runner
    equivalence tests). With a store active (regenerate CLI,
    ``REPRO_ARTIFACT_CACHE=1``, or an explicit
    :func:`repro.experiments.artifacts.activate`), each cell's
    fingerprint is consulted first and only the misses dispatch — in
    one batch, so pool load-balancing over the misses is unchanged.
    Hit values were pickled by an earlier identical computation, so
    cold and warm results are bitwise-identical.

    With an active :func:`repro.resilience.use_policy` policy (the
    runner's ``--keep-going``/``--max-retries`` flags), the same
    dispatch runs under that policy instead of strict: one
    raising/hung/crashed cell no longer aborts the sweep. Every
    *successful* cell is persisted to the store first, and then a
    :class:`~repro.resilience.SweepFailure` reports exactly the failed
    cells — so a rerun resumes from the survivors and recomputes only
    the failures (the resume-from-store workflow in
    ``docs/robustness.md``).
    """
    store = artifacts.active_store()
    if store is None:
        results = execution.map_cells(fn, items, processes=processes)
        _raise_if_failed(driver, results)
        return results
    cells = make_cells(driver, fn, items)
    results: List[Any] = [None] * len(cells)
    missing: List[int] = []
    for i, cell in enumerate(cells):
        found, value = store.get(driver, cell.fingerprint)
        if found:
            results[i] = value
        else:
            missing.append(i)
    if missing:
        computed = _compute_batch(
            fn, [cells[i].args for i in missing], missing, processes)
        for i, value in zip(missing, computed):
            results[i] = value
            if isinstance(value, CellFailure):
                continue  # never persist a failure record as a value
            store.put(driver, cells[i].fingerprint, value,
                      meta={"version": cells[i].version,
                            "fn": f"{fn.__module__}:{fn.__qualname__}"})
    _raise_if_failed(driver, results)
    return results


@functools.lru_cache(maxsize=None)
def latency_bound(app: AppProfile, seed: int,
                  num_requests: Optional[int] = None) -> float:
    """Tail-latency target: fixed-frequency tail at 50% load, same seed.

    Memoized process-wide on ``(app, seed, num_requests)``: the bound is
    defined at ``BOUND_LOAD`` regardless of the evaluation load, so every
    driver that sweeps loads (or ablation variants) used to replay the
    identical bound trace once per point. The replay is deterministic, so
    caching is bitwise-invisible; pool workers each hold their own cache,
    which the persistent :class:`repro.perf.WorkerPool` keeps warm across
    drivers. ``latency_bound.cache_clear()`` resets (tests)."""
    trace = Trace.generate_at_load(app, BOUND_LOAD, num_requests, seed)
    return replay(trace, NOMINAL_FREQUENCY_HZ).tail_latency()


def make_context(app: AppProfile, seed: int,
                 num_requests: Optional[int] = None) -> SchemeContext:
    """Context with the per-seed latency bound for ``app``."""
    return SchemeContext(
        latency_bound_s=latency_bound(app, seed, num_requests), app=app)


def training_traces(app: AppProfile, load: float, seed: int,
                    num_requests: Optional[int] = None,
                    count: int = 2) -> Tuple[List[Trace], List[float]]:
    """Traces for offline tuning, disjoint from the evaluation trace.

    Returns (traces, per-trace bounds), each bound computed on its own
    seed with the standard methodology.
    """
    seeds = [seed + TRAINING_SEED_OFFSET + k for k in range(count)]
    traces = [Trace.generate_at_load(app, load, num_requests, s)
              for s in seeds]
    bounds = [latency_bound(app, s, num_requests) for s in seeds]
    return traces, bounds


@dataclasses.dataclass
class SchemePoint:
    """One scheme at one (app, load) point, averaged over seeds."""

    scheme: str
    power_savings: float
    energy_per_request_mj: float
    tail_latency_ms: float
    violation_rate: float


def _power_and_tail(result, bound: float) -> Tuple[float, float, float]:
    """(mean power, tail, violation rate) for Run/Replay results."""
    if isinstance(result, RunResult):
        return (result.mean_core_power_w, result.tail_latency(),
                result.violation_rate(bound))
    assert isinstance(result, ReplayResult)
    return (result.mean_core_power_w, result.tail_latency(),
            result.violation_rate(bound))


def _compare_seed(args) -> Dict[str, Tuple[float, float, float, float]]:
    """One seed of the Fig. 6 scheme suite (module-level so the parallel
    sweep executor can fan seeds out across worker processes)."""
    app, load, seed, num_requests, include = args
    context = make_context(app, seed, num_requests)
    bound = context.latency_bound_s
    trace = Trace.generate_at_load(app, load, num_requests, seed)
    base = replay(trace, NOMINAL_FREQUENCY_HZ)
    base_power = base.mean_core_power_w
    rows: Dict[str, Tuple[float, float, float, float]] = {}
    for name in include:
        if name == "StaticOracle":
            result = StaticOracle().evaluate(trace, context)
        elif name == "AdrenalineOracle":
            tr_traces, tr_bounds = training_traces(
                app, load, seed, num_requests)
            result = AdrenalineOracle().evaluate(
                trace, context, tr_traces, tr_bounds)
        elif name == "Rubik":
            result = run_trace(trace, Rubik(), context)
        elif name == "Rubik (No Feedback)":
            result = run_trace(trace, Rubik(feedback=False), context)
        else:
            raise ValueError(f"unknown scheme {name!r}")
        power, tail, viol = _power_and_tail(result, bound)
        energy = result.energy_per_request_j
        rows[name] = (1.0 - power / base_power, energy, tail, viol)
    return rows


def aggregate_seed_rows(
    include: Sequence[str],
    per_seed: Sequence[Dict[str, Tuple[float, float, float, float]]],
) -> Dict[str, SchemePoint]:
    """Average :func:`_compare_seed` rows (in seed order) per scheme.

    Shared by :func:`compare_schemes` and the flattened Fig. 6 driver so
    both aggregate with the exact same float operations.
    """
    acc: Dict[str, List[Tuple[float, float, float, float]]] = {
        name: [] for name in include}
    for rows in per_seed:
        for name, row in rows.items():
            acc[name].append(row)

    points: Dict[str, SchemePoint] = {}
    for name, rows in acc.items():
        arr = np.asarray(rows)
        points[name] = SchemePoint(
            scheme=name,
            power_savings=float(arr[:, 0].mean()),
            energy_per_request_mj=float(arr[:, 1].mean() * 1e3),
            tail_latency_ms=float(arr[:, 2].mean() * 1e3),
            violation_rate=float(arr[:, 3].mean()),
        )
    return points


def compare_schemes(
    app: AppProfile,
    load: float,
    seeds: Sequence[int] = DEFAULT_EVAL_SEEDS,
    num_requests: Optional[int] = None,
    include: Sequence[str] = ("StaticOracle", "AdrenalineOracle", "Rubik"),
    processes: Optional[int] = None,
) -> Dict[str, SchemePoint]:
    """Evaluate the Fig. 6 scheme suite at one (app, load) point.

    Returns per-scheme seed-averaged results, keyed by scheme name.
    Power savings are relative to fixed-frequency at the same load.
    Seeds are independent and fan out over the parallel sweep executor
    (serial fallback on one CPU; identical results either way).
    """
    check_load(load)
    per_seed = parallel_map(
        _compare_seed,
        [(app, load, seed, num_requests, tuple(include)) for seed in seeds],
        processes=processes,
    )
    return aggregate_seed_rows(tuple(include), per_seed)
