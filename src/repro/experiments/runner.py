"""Unified experiment runner: registry + regenerate-all flow.

Every paper table/figure driver is registered here behind a common
interface (:class:`ExperimentSpec`), so any subset of the evaluation
matrix can be regenerated in one invocation:

    PYTHONPATH=src python -m repro.experiments --list
    PYTHONPATH=src python -m repro.experiments table1 fig06 -n 2000
    PYTHONPATH=src python -m repro.experiments all
    PYTHONPATH=src python -m repro.experiments all --refresh fig06
    PYTHONPATH=src python -m repro.experiments all --no-cache

A spec is a :class:`repro.experiments.configs.DriverConfig` (title,
aliases, size knob, version tag) paired with the driver module's
``main`` — the config's ``size_kwargs`` replaces the old per-driver
lambda adapters for ``num_requests`` vs ``requests_per_core``.

The drivers flatten their nested loops (app x load x seed, ablation
variants, (app, mix) pairs ...) into independent picklable cells
dispatched through :func:`repro.experiments.common.run_cells`; the
runner wraps the whole regeneration in one persistent
:class:`repro.perf.WorkerPool` (shared across drivers, workers keep
their memo caches warm) and — unless ``--no-cache`` — activates the
content-addressed artifact store, so previously computed cells replay
from disk bitwise-identically and only misses hit the pool.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablations,
    artifacts,
    fig01_intro,
    fig02_variability,
    fig06_power_savings,
    fig07_fig08_cdfs,
    fig09_load_sweep,
    fig10_load_steps,
    fig11_real_system,
    fig12_system_power,
    fig15_coloc_tails,
    fig16_datacenter,
    fleet_scenario,
    table1_correlations,
)
from repro.experiments.configs import CONFIGS, DriverConfig
from repro.perf import WorkerPool
from repro.resilience import RetryPolicy, SweepFailure, use_policy


class RegenerationFailed(RuntimeError):
    """One or more drivers finished with failed cells.

    Carries the reports that *did* complete plus each failing driver's
    :class:`~repro.resilience.SweepFailure`, so the CLI can print a
    per-driver summary and callers can still use partial output. The
    successful cells of the failing drivers are already persisted in
    the artifact store — rerunning the same command resumes from them.
    """

    def __init__(self, reports: Dict[str, str],
                 failures: Dict[str, SweepFailure]):
        self.reports = dict(reports)
        self.failures = dict(failures)
        super().__init__(
            f"{len(self.failures)} driver(s) had failed cells: "
            + ", ".join(self.failures))

    def summary(self) -> str:
        return "\n".join(f.summary() for f in self.failures.values())


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment driver: its declarative config plus the
    module ``main``.

    ``run(num_requests)`` regenerates the table/figure (printing its
    report, as the module ``main()``s do) and returns the report string.
    ``num_requests=None`` means the driver's full paper-scale default;
    the config's ``size_kwargs`` maps the value onto the driver's size
    knob (``num_requests``, or ``requests_per_core`` for Fig. 15/16).
    """

    config: DriverConfig
    main: Callable[..., str]

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def title(self) -> str:
        return self.config.title

    @property
    def aliases(self) -> Tuple[str, ...]:
        return self.config.aliases

    def run(self, num_requests: Optional[int] = None) -> str:
        return self.main(**self.config.size_kwargs(num_requests))


#: Driver name -> module entry point; everything else a spec needs
#: (title, aliases, size knob, version tag) lives in its DriverConfig.
_MAINS: Dict[str, Callable[..., str]] = {
    "fig01": fig01_intro.main,
    "fig02": fig02_variability.main,
    "fig06": fig06_power_savings.main,
    "fig07_08": fig07_fig08_cdfs.main,
    "fig09": fig09_load_sweep.main,
    "fig10": fig10_load_steps.main,
    "fig11": fig11_real_system.main,
    "fig12": fig12_system_power.main,
    "fig15": fig15_coloc_tails.main,
    "fig16": fig16_datacenter.main,
    "table1": table1_correlations.main,
    "ablations": ablations.main,
    "fleet": fleet_scenario.main,
}

EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    for key in (spec.name,) + spec.aliases:
        if key in EXPERIMENTS or key == "all":
            raise ValueError(f"duplicate experiment name {key!r}")
        EXPERIMENTS[key] = spec
    return spec


for _name, _cfg in CONFIGS.items():
    register(ExperimentSpec(_cfg, _MAINS[_name]))
missing = set(_MAINS) - set(CONFIGS)
if missing:  # pragma: no cover - registry wiring error
    raise RuntimeError(f"drivers without configs: {sorted(missing)}")
del _name, _cfg, missing


def experiment_names() -> List[str]:
    """Primary (alias-free) registered names, in registration order."""
    seen: List[str] = []
    for spec in EXPERIMENTS.values():
        if spec.name not in seen:
            seen.append(spec.name)
    return seen


def resolve(names: Optional[Sequence[str]] = None) -> List[ExperimentSpec]:
    """Specs for ``names`` (aliases ok, ``None``/``"all"`` = everything),
    deduplicated, in registration order."""
    if not names or "all" in names:
        keys = experiment_names()
    else:
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            raise KeyError(
                f"unknown experiment(s) {unknown!r}; "
                f"known: {', '.join(experiment_names())}")
        keys = [EXPERIMENTS[n].name for n in names]
    specs: List[ExperimentSpec] = []
    for name in experiment_names():
        if name in keys and EXPERIMENTS[name] not in specs:
            specs.append(EXPERIMENTS[name])
    return specs


def regenerate(names: Optional[Sequence[str]] = None,
               num_requests: Optional[int] = None,
               processes: Optional[int] = None,
               use_cache: bool = False,
               refresh: Sequence[str] = (),
               policy: Optional[RetryPolicy] = None,
               keep_going: bool = False) -> Dict[str, str]:
    """Regenerate the selected figures/tables through one shared pool.

    Returns ``{name: report}`` in registration order. The
    :class:`~repro.perf.WorkerPool` context makes every
    ``parallel_map`` inside the selected drivers reuse a single
    persistent pool (lazily created, at most once) instead of spawning
    per call; on one CPU everything stays on the exact serial path.

    With ``use_cache=True`` the env-resolved artifact store is activated
    for the duration: each driver's cells replay from disk when their
    fingerprints match and only misses dispatch to the pool, with
    results bitwise-identical either way. ``refresh`` names drivers
    (aliases ok) whose cached cells are deleted first — the targeted
    invalidation lever. The default is cache-off so library callers and
    the equivalence tests keep their direct compute semantics; the CLI
    flips it on.

    ``policy`` activates the resilient executor for every driver's
    cells (per-cell retry/timeout, crashed-worker recovery — see
    ``docs/robustness.md``). A driver whose sweep still ends with
    failed cells raises :class:`~repro.resilience.SweepFailure`, which
    aborts the remaining drivers unless ``keep_going`` is set; either
    way the failing drivers' *successful* cells are already persisted
    (when the store is on), and :class:`RegenerationFailed` is raised
    at the end with the completed reports attached — rerunning the same
    command resumes from the survivors.
    """
    specs = resolve(names)
    if refresh:
        store = artifacts.default_store()
        for spec in resolve(refresh):
            store.invalidate(spec.name)
    if use_cache:
        cache_ctx = artifacts.activate()
    else:
        cache_ctx = contextlib.nullcontext()
    policy_ctx = use_policy(policy) if policy is not None \
        else contextlib.nullcontext()
    reports: Dict[str, str] = {}
    failures: Dict[str, SweepFailure] = {}
    with cache_ctx, policy_ctx, WorkerPool(processes):
        for spec in specs:
            try:
                reports[spec.name] = spec.run(num_requests)
            except SweepFailure as exc:
                failures[spec.name] = exc
                if not keep_going:
                    break
    if failures:
        raise RegenerationFailed(reports, failures)
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.experiments``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate paper figures/tables through one shared "
                    "worker pool and a content-addressed artifact cache.")
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment names (see --list); omit or pass 'all' for "
             "the full matrix")
    parser.add_argument(
        "-n", "--num-requests", type=int, default=None,
        help="requests per run (default: each driver's paper-scale "
             "default; use a small value for smoke runs)")
    parser.add_argument(
        "--processes", type=int, default=None,
        help="shared-pool worker count (default: auto-size to the "
             "machine, capped by REPRO_MAX_WORKERS)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="compute every cell directly, neither reading nor writing "
             "the artifact store")
    parser.add_argument(
        "--refresh", action="append", default=[], metavar="EXPERIMENT",
        help="invalidate the named driver's cached cells before running "
             "(repeatable; aliases ok)")
    parser.add_argument(
        "--keep-going", action="store_true",
        help="keep running the remaining drivers after one finishes "
             "with failed cells (per-driver failure summary at the "
             "end; exit status 1)")
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="attempts after the first for a failing cell "
             "(default 1 when the resilient executor is active)")
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell soft timeout; a cell exceeding it is charged a "
             "failed attempt and its pool rebuilt (default: none)")
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list registered experiments (with cached-cell counts) "
             "and exit")
    args = parser.parse_args(argv)

    if args.list_experiments:
        store = artifacts.default_store()
        for name in experiment_names():
            spec = EXPERIMENTS[name]
            alias = f" (aliases: {', '.join(spec.aliases)})" \
                if spec.aliases else ""
            cached = store.cached_cells(name)
            print(f"{name:<10} [{cached:>3} cached] {spec.title}{alias}")
        return 0

    try:
        specs = resolve(args.experiments)
        if args.refresh:
            resolve(args.refresh)  # surface bad --refresh names early
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    if args.num_requests is not None and args.num_requests <= 0:
        parser.error("-n/--num-requests must be positive")
    use_cache = not args.no_cache
    # Any resilience flag activates the resilient executor; without
    # one, cells keep the exact parallel_map fail-fast semantics.
    policy: Optional[RetryPolicy] = None
    if args.keep_going or args.max_retries is not None \
            or args.cell_timeout is not None:
        try:
            policy = RetryPolicy(
                max_retries=(args.max_retries
                             if args.max_retries is not None else 1),
                timeout_s=args.cell_timeout)
        except ValueError as exc:
            parser.error(f"--max-retries/--cell-timeout: {exc}")
    print(f"Regenerating: {', '.join(s.name for s in specs)}")
    store = artifacts.default_store() if use_cache else None
    before = store.stats() if store else None
    failed: Optional[RegenerationFailed] = None
    try:
        regenerate([s.name for s in specs],
                   num_requests=args.num_requests,
                   processes=args.processes,
                   use_cache=use_cache,
                   refresh=args.refresh,
                   policy=policy,
                   keep_going=args.keep_going)
    except RegenerationFailed as exc:
        failed = exc
    if store is not None:
        after = store.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        print(f"[artifact-cache] {hits} hits, {misses} misses "
              f"({store.root})")
    if failed is not None:
        print(f"FAILED: {failed}", file=sys.stderr)
        print(failed.summary(), file=sys.stderr)
        if use_cache:
            print("(successful cells are cached; rerun the same "
                  "command to recompute only the failures)",
                  file=sys.stderr)
        return 1
    return 0
