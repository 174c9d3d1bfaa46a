"""Declarative sweep configs for every experiment driver.

One :class:`DriverConfig` per registered driver collects what used to be
scattered per-figure argument plumbing: the sweep axes (loads, apps,
seeds, scheme sets), the driver's size knob (``num_requests`` for most,
``requests_per_core`` for the colocation figures — the runner's
per-driver lambda adapters are gone), its registry title/aliases, and a
**version tag**.

The version tag is the artifact store's code-invalidation lever: it
joins every cell fingerprint of the driver (see
:func:`repro.experiments.artifacts.cell_fingerprint`), so bumping it —
the convention for any change to the driver's point worker or
methodology — invalidates exactly that driver's cached cells and
nothing else. The acceptance tests pin this: after a single driver's
tag moves, a warm regeneration recomputes that driver's cells only.

This module is a leaf (no experiment imports), so drivers, the shared
cell helper in :mod:`~repro.experiments.common`, and the runner
registry can all consume it without cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

#: Evaluation seeds per data point (paper: repeat until CIs < 1%).
EVAL_SEEDS: Tuple[int, ...] = (21, 22, 23)


@dataclasses.dataclass(frozen=True)
class DriverConfig:
    """Declarative description of one experiment driver's sweep.

    Attributes:
        name: primary registry name (``fig06``, ``table1`` ...).
        title: registry/CLI title line.
        version: code-version tag; part of every cell fingerprint.
            Bump when the driver's worker or methodology changes.
        size_knob: the keyword the driver's ``main`` sizes runs with
            (``num_requests``, or ``requests_per_core`` for the
            per-core-sized colocation figures).
        aliases: extra registry names resolving to this driver.
        loads: load sweep axis (empty when the driver fixes its load).
        apps: app axis (empty = the full app suite, or not app-swept).
        seeds: evaluation seeds (empty = single-seed driver).
        schemes: scheme set the driver evaluates.
        extras: misc per-driver knobs as ``(key, value)`` pairs (kept a
            tuple so the config stays frozen/hashable).
    """

    name: str
    title: str
    version: str = "1"
    size_knob: str = "num_requests"
    aliases: Tuple[str, ...] = ()
    loads: Tuple[float, ...] = ()
    apps: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = ()
    schemes: Tuple[str, ...] = ()
    extras: Tuple[Tuple[str, Any], ...] = ()

    def size_kwargs(self, num_requests: Optional[int]) -> Dict[str, Any]:
        """Keyword mapping for ``main`` — the one place the
        ``num_requests`` vs ``requests_per_core`` naming difference
        lives. ``None`` means "the driver's paper-scale default" and
        passes nothing."""
        if num_requests is None:
            return {}
        return {self.size_knob: num_requests}

    def extra(self, key: str, default: Any = None) -> Any:
        for k, v in self.extras:
            if k == key:
                return v
        return default


CONFIGS: Dict[str, DriverConfig] = {cfg.name: cfg for cfg in (
    DriverConfig(
        "fig01", "Fig. 1: intro energy comparison + load-step response",
        loads=(0.3, 0.4, 0.5), apps=("masstree",),
        extras=(("fig1b_requests", 6000),)),
    DriverConfig(
        "fig02", "Fig. 2: service-time variability panels",
        loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
        extras=(("default_load", 0.5),)),
    DriverConfig(
        "fig06", "Fig. 6: core power savings matrix",
        loads=(0.3, 0.4, 0.5), seeds=EVAL_SEEDS,
        schemes=("StaticOracle", "AdrenalineOracle", "Rubik")),
    DriverConfig(
        "fig07_08", "Figs. 7/8: latency CDFs + frequency histograms",
        aliases=("fig07", "fig08"), apps=("masstree", "xapian"),
        extras=(("load", 0.5),)),
    DriverConfig(
        "fig09", "Fig. 9: trace-driven load sweeps",
        loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        schemes=("Fixed", "StaticOracle", "DynamicOracle",
                 "Rubik (No Feedback)", "Rubik")),
    DriverConfig(
        "fig10", "Fig. 10: load-step responses",
        extras=(("step_fractions", (0.25, 0.5, 0.75)),
                ("total_time_s", 12.0))),
    DriverConfig(
        "fig11", "Fig. 11: real-system comparison (130us DVFS lag)",
        loads=(0.3, 0.4, 0.5), apps=("masstree", "moses")),
    DriverConfig(
        "fig12", "Fig. 12: full-system power savings",
        extras=(("load", 0.3),)),
    DriverConfig(
        "fig15", "Fig. 15: colocation tail latencies",
        version="2", size_knob="requests_per_core",
        extras=(("lc_load", 0.6), ("num_mixes", 20), ("seed", 5))),
    DriverConfig(
        "fig16", "Fig. 16: datacenter power & server count",
        size_knob="requests_per_core",
        loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
        extras=(("num_mixes", 3), ("default_requests_per_core", 800))),
    DriverConfig(
        "table1", "Table 1: latency-predictor correlations",
        extras=(("load", 0.5),)),
    DriverConfig(
        "ablations", "Rubik design-choice ablations",
        extras=(("load", 0.4),)),
    DriverConfig(
        "fleet", "Fleet: sharded datacenter with power-aware routing",
        size_knob="requests_per_core",
        extras=(("num_servers", 2000), ("num_epochs", 6),
                ("num_shards", 2), ("base_load", 0.35),
                ("demand_sigma", 0.6),
                ("default_requests_per_core", 400))),
)}
