"""Power-aware request routing across a sharded fleet.

The cluster-level scenario the paper's fixed fleet couldn't touch
(Sec. 7.2 simulates representative servers and multiplies): ``N``
servers — LC app assigned round-robin by absolute index — each draw a
per-epoch offered load from a seeded lognormal
(:func:`repro.fleet.seeding.server_rng`, so the draw is
shard-partition independent), plus a per-server power-efficiency
factor modeling hardware binning. Each routing epoch, a fleet router
re-splits every app's total demand across that app's servers to
minimize power, against **power curves** calibrated by simulating one
segregated server per (app, anchor load) cell — the per-server cost of
a 2000-server fleet is interpolation, not simulation, which is what
makes the sweep tractable.

Execution is the Layer 9 contract: shards fan out twice (placement:
draw demands; integration: evaluate power/tails over their
struct-of-arrays slice) as ``fleet`` cells via
:func:`~repro.experiments.common.run_cells`, and synchronize only in
between, when the parent routes all epochs over the assembled demand
matrix. Routing itself is deterministic heap-based water-filling:
every app group's demand fills per-server piecewise-linear marginal
power segments cheapest-first, ties broken by absolute server index,
with per-server prefix order enforced (a server's second segment is
only offered once its first is full) and a hard per-server capacity
cap. Overloaded baseline servers (offered load above the cap) report
``NaN`` tails, which the aggregation counts rather than averages.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.seeding import server_rng
from repro.fleet.shards import FLEET_DRIVER
from repro.fleet.state import FleetState, shard_bounds
from repro.power.model import DEFAULT_SYSTEM_POWER
from repro.schemes.base import SchemeContext
from repro.schemes.replay import replay
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, app_names

#: Loads at which per-app power/tail curves are calibrated by
#: simulation; the last anchor equals CAPACITY_CAP so the router never
#: extrapolates (a flat extrapolated segment would read as free load).
ANCHOR_LOADS: Tuple[float, ...] = (0.05, 0.2, 0.4, 0.6, 0.9)

#: Hard per-server load cap; offered load above it is shed (baseline)
#: or routed elsewhere (power-aware).
CAPACITY_CAP = 0.9

#: Wall-clock length of one routing epoch.
EPOCH_S = 60.0

#: Per-server efficiency factor range (hardware binning spread).
EFFICIENCY_RANGE = (0.9, 1.1)


@dataclasses.dataclass(frozen=True)
class PowerCurve:
    """Piecewise-linear (load -> power/tail) calibration for one app.

    Anchored by simulated segregated servers; frozen and
    primitives-only so curves ride inside fingerprintable cell args.
    """

    app: str
    loads: Tuple[float, ...]
    powers_w: Tuple[float, ...]
    tails_s: Tuple[float, ...]
    freqs_hz: Tuple[float, ...]

    def power_at(self, load: np.ndarray) -> np.ndarray:
        return np.interp(load, self.loads, self.powers_w)

    def tail_at(self, load: np.ndarray) -> np.ndarray:
        return np.interp(load, self.loads, self.tails_s)

    def freq_at(self, load: np.ndarray) -> np.ndarray:
        """Interpolated effective static frequency (record-keeping)."""
        return np.interp(load, self.loads, self.freqs_hz)

    def segments(self) -> List[Tuple[float, float, float]]:
        """``(lo, hi, slope_w_per_load)`` pieces from zero load to the
        last anchor. Below the first anchor the curve is flat
        (``np.interp`` clamps), hence a zero-slope first piece."""
        pieces = [(0.0, self.loads[0], 0.0)]
        for k in range(len(self.loads) - 1):
            lo, hi = self.loads[k], self.loads[k + 1]
            slope = (self.powers_w[k + 1] - self.powers_w[k]) / (hi - lo)
            pieces.append((lo, hi, slope))
        return pieces


def _anchor_worker(args: Tuple[str, float, int, int]) -> Tuple[float, float, float]:
    """One (app, anchor load) calibration cell: StaticOracle-tuned
    segregated server -> (server power W, 95th-pct tail s, freq Hz)."""
    app_name, load, seed, requests_per_core = args
    from repro.experiments.common import latency_bound  # cycle-free import

    app = APPS[app_name]
    num_requests = requests_per_core * 2
    bound = latency_bound(app, seed, num_requests)
    context = SchemeContext(latency_bound_s=bound, app=app)
    trace = Trace.generate_at_load(app, load, num_requests, seed)
    freq = find_static_frequency(trace, bound, context)
    result = replay(trace, freq)
    power = DEFAULT_SYSTEM_POWER.server_power(
        result.mean_core_power_w, utilization=min(1.0, load))
    return power, result.tail_latency(), freq


def build_power_curves(
    seed: int,
    requests_per_core: int,
    processes: Optional[int] = None,
) -> Dict[str, PowerCurve]:
    """Calibrate every app's curve at ``ANCHOR_LOADS`` (anchor cells
    fan out / cache)."""
    from repro.experiments.common import run_cells  # cycle-free import

    names = app_names()
    tasks = [(name, load, seed, requests_per_core)
             for name in names for load in ANCHOR_LOADS]
    rows = run_cells(FLEET_DRIVER, _anchor_worker, tasks,
                     processes=processes)
    curves: Dict[str, PowerCurve] = {}
    for i, name in enumerate(names):
        chunk = rows[i * len(ANCHOR_LOADS):(i + 1) * len(ANCHOR_LOADS)]
        curves[name] = PowerCurve(
            app=name,
            loads=ANCHOR_LOADS,
            powers_w=tuple(r[0] for r in chunk),
            tails_s=tuple(r[1] for r in chunk),
            freqs_hz=tuple(r[2] for r in chunk),
        )
    return curves


def _placement_shard(
    args: Tuple[int, int, int, int, float, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw per-server demands and efficiency for servers ``[lo, hi)``.

    Every draw comes from :func:`server_rng` keyed by the *absolute*
    server index, so the returned slice is independent of the shard
    partition (invariant 22).
    """
    lo, hi, seed, num_epochs, base_load, sigma = args
    demands = np.empty((num_epochs, hi - lo))
    eff = np.empty(hi - lo)
    eff_lo, eff_hi = EFFICIENCY_RANGE
    for j, server in enumerate(range(lo, hi)):
        rng = server_rng(seed, server)
        eff[j] = eff_lo + (eff_hi - eff_lo) * rng.random()
        demands[:, j] = np.clip(
            base_load * rng.lognormal(mean=0.0, sigma=sigma,
                                      size=num_epochs),
            0.02, 1.2)
    return demands, eff


def route_epoch(
    demands: np.ndarray,
    app_idx: np.ndarray,
    eff: np.ndarray,
    curves: Sequence[PowerCurve],
) -> Tuple[np.ndarray, float]:
    """Split each app's total demand power-optimally for one epoch.

    Heap-based water-filling over per-server marginal-power segments
    (slope x efficiency), cheapest first, ties by absolute server
    index, per-server segments strictly in order. Returns the routed
    per-server loads and the demand shed because the app group's total
    exceeded what its servers can take: ``CAPACITY_CAP`` each, or the
    curve's last anchor if lower (the router never extrapolates).
    """
    routed = np.zeros(demands.shape[0])
    shed = 0.0
    for a in range(len(curves)):
        members = np.flatnonzero(app_idx == a)
        if members.size == 0:
            continue
        pieces = [(lo, min(hi, CAPACITY_CAP), slope)
                  for lo, hi, slope in curves[a].segments()
                  if lo < CAPACITY_CAP]
        demand = float(demands[members].sum())
        capacity = pieces[-1][1] * members.size
        if demand > capacity:
            shed += demand - capacity
            demand = capacity
        # Heap of (marginal cost, server, piece index): popping yields
        # the globally cheapest *next* unit of capacity, and a server's
        # piece k+1 is pushed only when piece k fills.
        heap = [(pieces[0][2] * eff[s], int(s), 0) for s in members]
        heapq.heapify(heap)
        remaining = demand
        while remaining > 1e-12 and heap:
            _, server, k = heapq.heappop(heap)
            lo, hi, _ = pieces[k]
            take = min(hi - lo, remaining)
            routed[server] += take
            remaining -= take
            if take == hi - lo and k + 1 < len(pieces):
                heapq.heappush(
                    heap, (pieces[k + 1][2] * eff[server], server, k + 1))
    return routed, shed


def _integrate_shard(args) -> Dict[str, np.ndarray]:
    """Evaluate power/tails for servers ``[lo, hi)`` over all epochs.

    Pure vectorized interpolation over the shard's SoA slice — no
    randomness, no cross-shard reads — so the result depends only on
    the routed/baseline load matrices the parent computed at the
    routing synchronization point.
    """
    lo, hi, demands, routed, eff, curves, epoch_s = args
    n = hi - lo
    app_idx = (np.arange(lo, hi) % len(curves)).astype(np.int32)
    base_loads = np.minimum(demands, CAPACITY_CAP)
    overload = demands > CAPACITY_CAP
    base_power = np.empty_like(base_loads)
    routed_power = np.empty_like(routed)
    base_tail = np.empty_like(base_loads)
    routed_tail = np.empty_like(routed)
    final_freq = np.empty(n)
    for a, curve in enumerate(curves):
        cols = np.flatnonzero(app_idx == a)
        if cols.size == 0:
            continue
        base_power[:, cols] = curve.power_at(base_loads[:, cols])
        routed_power[:, cols] = curve.power_at(routed[:, cols])
        base_tail[:, cols] = curve.tail_at(base_loads[:, cols])
        routed_tail[:, cols] = curve.tail_at(routed[:, cols])
        final_freq[cols] = curve.freq_at(routed[-1, cols])
    base_power *= eff[None, :]
    routed_power *= eff[None, :]
    base_tail[overload] = np.nan  # shed load: tail undefined, not data
    return {
        "baseline_energy_j": base_power.sum(axis=0) * epoch_s,
        "routed_energy_j": routed_power.sum(axis=0) * epoch_s,
        "baseline_tail_s": base_tail.max(axis=0),  # NaN-propagating max
        "routed_tail_s": routed_tail.max(axis=0),
        "overload_epochs": overload.sum(axis=0).astype(np.int64),
        "final_power_w": routed_power[-1, :],
        "final_freq_hz": final_freq,
    }


@dataclasses.dataclass
class RoutedFleetResult:
    """Aggregate outcome of one routed-fleet scenario run."""

    num_servers: int
    num_epochs: int
    num_shards: int
    epoch_s: float
    baseline_energy_j: float
    routed_energy_j: float
    baseline_shed_load: float
    routed_shed_load: float
    baseline_overload_server_epochs: int
    overloaded_servers: int       # servers with a NaN baseline tail
    baseline_tail_s: float        # NaN-aware fleet mean of worst tails
    routed_tail_s: float
    state: FleetState             # final-epoch routed fleet (SoA)

    @property
    def energy_savings_frac(self) -> float:
        if self.baseline_energy_j <= 0:
            return 0.0
        return 1.0 - self.routed_energy_j / self.baseline_energy_j

    def equals(self, other: "RoutedFleetResult") -> bool:
        """Bitwise equality (the shard-invariance suite's check)."""
        scalars = ("num_servers", "num_epochs", "epoch_s",
                   "baseline_energy_j", "routed_energy_j",
                   "baseline_shed_load", "routed_shed_load",
                   "baseline_overload_server_epochs",
                   "overloaded_servers")
        if any(getattr(self, f) != getattr(other, f) for f in scalars):
            return False
        tails = ("baseline_tail_s", "routed_tail_s")
        if any(not np.array_equal(getattr(self, f), getattr(other, f),
                                  equal_nan=True) for f in tails):
            return False
        return self.state.equals(other.state)


def run_routed_fleet(
    num_servers: int = 2000,
    seed: int = 21,
    num_epochs: int = 6,
    num_shards: int = 1,
    requests_per_core: int = 400,
    base_load: float = 0.35,
    demand_sigma: float = 0.6,
    processes: Optional[int] = None,
) -> RoutedFleetResult:
    """Run the routed-fleet scenario (bitwise shard-count invariant).

    Three stages: calibrate power curves (anchor cells), placement
    fan-out (shards draw their servers' demands), routing epochs in the
    parent, then integration fan-out (shards evaluate their SoA slice).
    Raises ``ValueError`` naming the argument, before calibration, for
    fewer than one server or epoch, a non-finite or non-positive
    ``base_load``, or a non-finite or negative ``demand_sigma``.
    """
    from repro.experiments.common import run_cells  # cycle-free import

    if num_servers < 1:
        raise ValueError(f"num_servers must be >= 1, got {num_servers}")
    if num_epochs < 1:
        raise ValueError(f"num_epochs must be >= 1, got {num_epochs}")
    if not (math.isfinite(base_load) and base_load > 0):
        raise ValueError(
            f"base_load must be finite and positive, got {base_load}")
    if not (math.isfinite(demand_sigma) and demand_sigma >= 0):
        raise ValueError(
            f"demand_sigma must be finite and >= 0, got {demand_sigma}")
    curves_by_app = build_power_curves(seed, requests_per_core,
                                       processes=processes)
    curves = tuple(curves_by_app[name] for name in app_names())
    bounds = shard_bounds(num_servers, num_shards)

    placements = run_cells(
        FLEET_DRIVER, _placement_shard,
        [(lo, hi, seed, num_epochs, base_load, demand_sigma)
         for lo, hi in bounds],
        processes=processes)
    demands = np.concatenate([p[0] for p in placements], axis=1)
    eff = np.concatenate([p[1] for p in placements])
    app_idx = (np.arange(num_servers) % len(curves)).astype(np.int32)

    # Routing epochs: the only cross-shard synchronization point.
    routed = np.zeros_like(demands)
    routed_shed = 0.0
    for e in range(num_epochs):
        routed[e], shed = route_epoch(demands[e], app_idx, eff, curves)
        routed_shed += shed

    parts = run_cells(
        FLEET_DRIVER, _integrate_shard,
        [(lo, hi, demands[:, lo:hi], routed[:, lo:hi], eff[lo:hi],
          curves, EPOCH_S) for lo, hi in bounds],
        processes=processes)

    merged = {key: np.concatenate([p[key] for p in parts])
              for key in parts[0]}
    state = FleetState.empty(num_servers)
    state.load[:] = routed[-1]
    state.app_idx[:] = app_idx
    state.scheme_idx[:] = -1  # segregated curves: no colocation scheme
    state.freq_hz[:] = merged["final_freq_hz"]
    state.seg_power_w[:] = merged["final_power_w"]
    state.coloc_power_w[:] = 0.0
    state.batch_deficit[:] = 0.0
    state.lc_tail_s[:] = merged["baseline_tail_s"]

    base_clipped = np.minimum(demands, CAPACITY_CAP)
    baseline_tails = merged["baseline_tail_s"]
    finite = baseline_tails[np.isfinite(baseline_tails)]
    return RoutedFleetResult(
        num_servers=num_servers,
        num_epochs=num_epochs,
        num_shards=num_shards,
        epoch_s=EPOCH_S,
        baseline_energy_j=float(merged["baseline_energy_j"].sum()),
        routed_energy_j=float(merged["routed_energy_j"].sum()),
        baseline_shed_load=float((demands - base_clipped).sum()),
        routed_shed_load=float(routed_shed),
        baseline_overload_server_epochs=int(
            merged["overload_epochs"].sum()),
        overloaded_servers=int(np.count_nonzero(
            np.isnan(baseline_tails))),
        baseline_tail_s=(float(np.mean(finite)) if finite.size
                         else float("nan")),
        routed_tail_s=float(np.mean(merged["routed_tail_s"])),
        state=state,
    )
