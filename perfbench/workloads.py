"""The benchmark's four workloads: what each runs, and how its outputs
are checked.

Every workload is a batch, closed-loop sweep: a driver submits all its
cells at once and a pool of ``WORKERS`` processes takes the next cell
when one finishes. Inputs are the paper's evaluation matrix at a reduced
request count, so one sweep takes seconds; ``offset`` (from ``--seed``)
shifts every driver seed, and 0 reproduces the drivers' own seeds.

``run_*`` functions execute in the sweep process and call only public
entry points of ``repro``, each driver inside ``span(driver)`` (recorded
in a traced run, a no-op otherwise); ``check_*`` functions execute in
the benchmark process on the JSON outputs and return ``(claim, ok,
detail)`` rows. The import of ``repro`` is deferred to the sweep process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Requests per run of dvfs-sweep's fig06 and fig09 cells. At 1500,
#: Rubik's max-frequency warm-up erases its 40%-load lead over
#: StaticOracle in fig06 on 2 of 55 seeds (at 3000 the lead is >= 26%
#: on 30); at 700, fig09's masstree Rubik-vs-StaticOracle energy margin
#: falls to 4% (9% at 1400).
FIG06_REQUESTS = 3000
FIG09_REQUESTS = 1400
#: fig15 batch mixes and LC requests per core in coloc-sweep.
COLOC_MIXES = 1
COLOC_REQUESTS_PER_CORE = 800
#: fig16 mixes and requests per core in coloc-sweep (all six loads).
FLEET_MIXES = 1
FLEET_REQUESTS_PER_CORE = 300
#: Requests per Rubik run in rubik-fallback, over fig06's three seeds:
#: deep-queue cost at 80-90% load varies by seed, and three traces per
#: point average it out.
FALLBACK_REQUESTS = 700
#: warm-rerun's request count. The drivers' registered entry points take
#: no seed, so this workload's inputs do not depend on ``--seed``; a
#: seed-dependent size would move the replay's parent-side work with it.
WARM_REQUESTS = 40

FALLBACK_SCHEMES = ("Rubik", "Rubik (No Feedback)")

Claim = Tuple[str, bool, str]


def seed_offset(seed: int) -> int:
    """Shift applied to every driver seed (kept small and non-negative)."""
    return seed % 1_000_000


def _quiet(fn: Callable, *args, **kwargs):
    """Call a driver with its report printing discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def _signature_seed(fn: Callable) -> int:
    import inspect
    return inspect.signature(fn).parameters["seed"].default


# -- sweeps (sweep process) --------------------------------------------


def run_dvfs_sweep(offset: int, span) -> Dict[str, Any]:
    from repro.experiments import fig06_power_savings as fig06
    from repro.experiments import fig09_load_sweep as fig09
    from repro.experiments.configs import CONFIGS

    seeds = tuple(s + offset for s in CONFIGS["fig06"].seeds)
    with span("fig06"):
        res6 = fig06.run_fig6(num_requests=FIG06_REQUESTS, seeds=seeds)
    with span("fig09"):
        res9 = fig09.run_fig9(num_requests=FIG09_REQUESTS,
                              seed=_signature_seed(fig09.run_fig9) + offset)
    return {
        "fig06": _savings(res6),
        "fig09": {app: {"loads": list(r.loads), "bound_ms": r.bound_ms,
                        "tail_ms": r.tail_ms, "energy_mj": r.energy_mj}
                  for app, r in res9.items()},
    }


def run_coloc_sweep(offset: int, span) -> Dict[str, Any]:
    from repro.experiments import fig15_coloc_tails as fig15
    from repro.experiments import fig16_datacenter as fig16
    from repro.experiments.configs import CONFIGS

    with span("fig15"):
        res15 = fig15.run_fig15(
            num_mixes=COLOC_MIXES, requests_per_core=COLOC_REQUESTS_PER_CORE,
            seed=CONFIGS["fig15"].extra("seed") + offset)
    with span("fig16"):
        res16 = fig16.run_fig16(
            num_mixes=FLEET_MIXES, requests_per_core=FLEET_REQUESTS_PER_CORE,
            seed=_signature_seed(fig16.run_fig16) + offset)
    return {
        "fig15": {s: [float(x) for x in tails]
                  for s, tails in res15.normalized_tails.items()},
        "fig16": [[load, c.power_reduction, c.server_reduction]
                  for load, c in zip(res16.loads, res16.comparisons)],
    }


def run_rubik_fallback(offset: int, span) -> Dict[str, Any]:
    from repro.experiments import fig06_power_savings as fig06
    from repro.experiments.configs import CONFIGS

    seeds = tuple(s + offset for s in CONFIGS["fig06"].seeds)
    with span("fig06"):
        res = fig06.run_fig6(
            num_requests=FALLBACK_REQUESTS, seeds=seeds,
            loads=CONFIGS["fig09"].loads, include=FALLBACK_SCHEMES)
    # No store counts this sweep's cells: one per app x load x seed.
    return {"fig06": _savings(res),
            "cells": len(res.savings) * len(res.loads) * len(seeds)}


def run_warm_rerun(offset: int, span) -> Dict[str, Any]:
    from repro.experiments.runner import resolve

    reports = {}
    for spec in resolve(None):
        with span(spec.name):
            reports[spec.name] = _quiet(spec.run, WARM_REQUESTS)
    return {"reports": reports}


def fill_warm_store(offset: int, span) -> Dict[str, Any]:
    """warm-rerun's preparation: the first ``python -m repro.experiments
    all``, into the store directory the sweep will replay from."""
    from repro.experiments.runner import regenerate

    reports = _quiet(regenerate, None, num_requests=WARM_REQUESTS,
                     use_cache=True)
    return {"reports": reports}


def _savings(res) -> Dict[str, Any]:
    return {"loads": list(res.loads), "schemes": list(res.schemes),
            "savings": {app: {repr(load): cell for load, cell in row.items()}
                        for app, row in res.savings.items()}}


# -- checks (benchmark process) ----------------------------------------
#
# The shapes benchmarks/test_bench_fig06/09/15/16.py assert, re-evaluated
# at each workload's scale over many seeds. Dropped because they do not
# hold on every seed at these request counts:
#
# * fig06 Rubik beats StaticOracle at 30% load: it trails on 9 of 40
#   seeds at 3000 requests (0.266 vs 0.274 worst), the per-app gap for
#   shore and specjbb that ROADMAP.md leaves open. Rubik saves > 8%
#   at 50% load (0.043-0.099 seen) and > 25% at 30% load (0.258 lowest,
#   too close): short runs spend a larger share at max frequency before
#   the first tables.
# * fig09 shore Rubik tail above the bound at 70% load (1.005x seen).
# * fig15 RubikColoc worst tail <= 1.1x and <= 5% of mixes violating:
#   1.20x and 1.95x worst, 20-40% violating on other seeds even at the
#   paper's request counts, since the bound comes from one short trace.
#   HW-TPW worst tail > StaticColoc's: StaticColoc reached 8.2x against
#   HW-TPW's 4.5x on one of 30 seeds.
# * fig16 highest load cuts > 8% power (0.074-0.15 across seeds).


def _mean_savings(fig06: Dict[str, Any], load: float, scheme: str) -> float:
    return statistics.fmean(row[repr(load)][scheme]
                            for row in fig06["savings"].values())


def check_dvfs_sweep(rec: Dict[str, Any], prep: Any) -> List[Claim]:
    f6, f9 = rec["outputs"]["fig06"], rec["outputs"]["fig09"]
    rows: List[Claim] = []
    if "layers" in rec:
        python = rec["layers"].get("core.decision_path.kernel", 0) \
            + rec["layers"].get("core.decision_path.vectorized", 0)
        rows.append(("traced: every Rubik run took the native path",
                     python == 0, f"{python:.0f} Python-path runs"))
    for load in (0.4, 0.5):
        rubik = _mean_savings(f6, load, "Rubik")
        static = _mean_savings(f6, load, "StaticOracle")
        rows.append((f"fig06 Rubik saves more than StaticOracle at "
                     f"{load:.0%} load", rubik > static,
                     f"{rubik:.3f} vs {static:.3f}"))
    static50 = _mean_savings(f6, 0.5, "StaticOracle")
    rows.append(("fig06 StaticOracle saves ~nothing at 50% load",
                 abs(static50) < 0.03, f"{static50:.3f}"))
    adren50 = _mean_savings(f6, 0.5, "AdrenalineOracle")
    rows.append(("fig06 AdrenalineOracle saves little at 50% load",
                 adren50 < 0.08, f"{adren50:.3f}"))
    mt = f9["masstree"]
    for scheme in ("StaticOracle", "Rubik"):
        worst = max(t for load, t in zip(mt["loads"], mt["tail_ms"][scheme])
                    if load <= 0.4) / mt["bound_ms"]
        rows.append((f"fig09 masstree {scheme} tail <= 1.15x bound at "
                     "<= 40% load", worst <= 1.15, f"{worst:.3f}x"))
    at = {load: i for i, load in enumerate(mt["loads"])}
    e = mt["energy_mj"]
    dyn = e["DynamicOracle"][at[0.2]]
    best = min(e[s][at[0.2]] for s in ("Fixed", "StaticOracle", "Rubik"))
    rows.append(("fig09 masstree DynamicOracle is the energy envelope at "
                 "20% load", dyn <= best * 1.05, f"{dyn:.4f} vs {best:.4f}"))
    rows.append(("fig09 masstree Rubik uses less energy than StaticOracle "
                 "at 40% load",
                 e["Rubik"][at[0.4]] <= e["StaticOracle"][at[0.4]],
                 f"{e['Rubik'][at[0.4]]:.4f} vs "
                 f"{e['StaticOracle'][at[0.4]]:.4f}"))
    e = f9["shore"]["energy_mj"]
    rubik, dyn = e["Rubik"][at[0.4]], e["DynamicOracle"][at[0.4]]
    rows.append(("fig09 shore Rubik uses more energy than DynamicOracle at "
                 "40% load", rubik >= dyn, f"{rubik:.4f} vs {dyn:.4f}"))
    return rows


def check_coloc_sweep(rec: Dict[str, Any], prep: Any) -> List[Claim]:
    out = rec["outputs"]
    worst = max(out["fig15"]["HW-TPW"])
    rows: List[Claim] = [
        ("fig15 HW-TPW worst tail > 2x bound", worst > 2.0, f"{worst:.3f}x"),
    ]
    points = sorted(out["fig16"])
    low, high = points[0], points[-1]
    rows.append(("fig16 colocation cuts power and servers at every load",
                 all(p > 0 and s > 0 for _, p, s in points),
                 " ".join(f"{ld:.0%}:{p:.2f}/{s:.2f}"
                          for ld, p, s in points)))
    rows.append(("fig16 colocation cuts more servers at the lowest load",
                 low[2] > high[2], f"{low[2]:.3f} vs {high[2]:.3f}"))
    rows.append(("fig16 lowest load cuts > 20% power", low[1] > 0.2,
                 f"{low[1]:.3f}"))
    rows.append(("fig16 lowest load cuts > 30% servers", low[2] > 0.3,
                 f"{low[2]:.3f}"))
    return rows


def check_rubik_fallback(rec: Dict[str, Any], native: Any) -> List[Claim]:
    rows: List[Claim] = [
        ("no run took the native path: library not loaded",
         not rec["native"], ""),
        ("fallback savings equal the native path's bit for bit",
         rec["outputs"] == native, ""),
    ]
    if "layers" in rec:
        count = rec["layers"].get("core.decision_path.native", 0)
        rows.append(("traced: no Rubik run reported the native path",
                     count == 0, f"{count:.0f} native runs"))
    return rows


def check_warm_rerun(rec: Dict[str, Any], fill: Any) -> List[Claim]:
    replayed = rec["outputs"]["reports"]
    differ = sorted(name for name in fill["reports"].keys() | replayed.keys()
                    if replayed.get(name) != fill["reports"].get(name))
    return [
        ("every cell replayed from the store (0 misses)",
         rec["store"]["misses"] == 0, f"{rec['store']['misses']} misses"),
        ("every replayed report equals the fill's report character for "
         "character", not differ, ", ".join(differ)),
    ]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named workload (see ``README.md`` for why each exists)."""

    run: Callable[..., Dict[str, Any]]
    check: Callable[[Dict[str, Any], Any], List[Claim]]
    #: Platform the timed runs require: native library on, off, or either.
    native: Optional[bool]
    #: The sweep reads and writes an artifact store.
    store: bool
    #: Untimed preparation whose outputs the checks consume.
    prep: Optional[Callable[..., Dict[str, Any]]] = None


WORKLOADS: Dict[str, Workload] = {
    "dvfs-sweep": Workload(run_dvfs_sweep, check_dvfs_sweep,
                           native=True, store=True),
    "coloc-sweep": Workload(run_coloc_sweep, check_coloc_sweep,
                            native=True, store=True),
    # The native reference runs the same cells with the library on.
    "rubik-fallback": Workload(run_rubik_fallback, check_rubik_fallback,
                               native=False, store=False,
                               prep=run_rubik_fallback),
    "warm-rerun": Workload(run_warm_rerun, check_warm_rerun,
                           native=None, store=True, prep=fill_warm_store),
}


def savings_at_30(outputs: Dict[str, Any]) -> List[str]:
    """Per-app Rubik vs StaticOracle savings at 30% load (ungated)."""
    rows = outputs["fig06"]["savings"]
    return [f"{app}: Rubik {row['0.3']['Rubik']:.1%} vs StaticOracle "
            f"{row['0.3']['StaticOracle']:.1%}" for app, row in rows.items()]
