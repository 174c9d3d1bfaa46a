"""Sharded execution of the representative datacenter fleet.

The paper's Fig. 14/16 datacenter is evaluated on a *representative
fleet*: one server per (batch mix, LC app) pair, mix-major/app-minor by
absolute server index, so server ``i`` runs LC app ``i % n_apps``
colocated with batch mix ``i // n_apps``. Each shard owns a contiguous
slice of that fleet (:func:`repro.fleet.state.shard_bounds`), simulates
its servers into struct-of-arrays :class:`~repro.fleet.state.FleetState`,
and the parent concatenates the slices — bitwise identical for any
shard count, because every per-server value is a pure function of the
server's (app, mix, load, seed) coordinates and never of shard
membership or worker identity.

This is the only datacenter path (:mod:`repro.coloc.datacenter` holds
the per-server computations and aggregates the state);
``tests/fleet/test_invariance.py`` pins it bitwise against the original
single-process loop.

Shards dispatch as cells of the ``fleet`` driver through
:func:`repro.experiments.common.run_cells`, so fleet sweeps inherit the
artifact store's caching/resume and the resilient executor (per-shard
retry, crashed-worker recovery) without any fleet-specific plumbing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.coloc.batch import generate_mixes
from repro.coloc.datacenter import (
    COLOC_SCHEME,
    colocated_server,
    datacenter_defaults,
    segregated_server,
)
from repro.coloc.server import COLOC_SCHEME_NAMES
from repro.fleet.state import FleetState, shard_bounds
from repro.workloads.apps import APPS, app_names

#: Registry name scoping fleet shard/anchor cells in the artifact store.
FLEET_DRIVER = "fleet"


def representative_fleet_size(num_mixes: int) -> int:
    """Servers in the representative fleet: one per (mix, app) pair."""
    return num_mixes * len(app_names())


def _datacenter_shard(args: Tuple[int, int, float, int, int, int]) -> FleetState:
    """Simulate servers ``[lo, hi)`` of the representative fleet.

    Module-level and picklable (pool worker + artifact fingerprint).
    """
    lo, hi, lc_load, seed, num_mixes, requests_per_core = args
    mixes = generate_mixes(num_mixes=num_mixes, seed=0)
    apps = [APPS[name] for name in app_names()]
    scheme_idx = COLOC_SCHEME_NAMES.index(COLOC_SCHEME)
    state = FleetState.empty(hi - lo)
    for j, server in enumerate(range(lo, hi)):
        mix_idx, app_idx = divmod(server, len(apps))
        app = apps[app_idx]
        seg_power, _, freq = segregated_server(
            app, lc_load, seed, requests_per_core * 2)
        coloc_power, deficit, tail = colocated_server(
            app, mixes[mix_idx], lc_load, seed, requests_per_core)
        state.load[j] = lc_load
        state.app_idx[j] = app_idx
        state.mix_idx[j] = mix_idx
        state.scheme_idx[j] = scheme_idx
        state.freq_hz[j] = freq
        state.seg_power_w[j] = seg_power
        state.coloc_power_w[j] = coloc_power
        state.batch_deficit[j] = deficit
        state.lc_tail_s[j] = tail
    return state


def run_datacenter_fleet(
    lc_load: float,
    seed: int = 21,
    num_mixes: Optional[int] = None,
    requests_per_core: Optional[int] = None,
    num_shards: int = 1,
    processes: Optional[int] = None,
) -> FleetState:
    """The representative datacenter fleet at one LC load.

    ``num_mixes``/``requests_per_core`` default from ``CONFIGS["fig16"]``
    (:func:`~repro.coloc.datacenter.datacenter_defaults`, which rejects
    sizes below 1 before any shard is dispatched). Shards fan out as
    ``fleet`` cells over the shared worker pool (or the artifact store
    / resilient executor when active); the returned state is the shard
    slices concatenated in absolute-index order and is
    bitwise-identical for any ``num_shards`` (invariant 21).
    """
    num_mixes, requests_per_core = datacenter_defaults(
        num_mixes, requests_per_core)
    num_servers = representative_fleet_size(num_mixes)
    bounds = shard_bounds(num_servers, num_shards)
    tasks = [(lo, hi, lc_load, seed, num_mixes, requests_per_core)
             for lo, hi in bounds]
    from repro.experiments.common import run_cells  # cycle-free import

    parts: List[FleetState] = run_cells(
        FLEET_DRIVER, _datacenter_shard, tasks, processes=processes)
    return FleetState.concat(parts)
