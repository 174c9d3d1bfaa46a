"""Colocation frequency-management schemes (paper Sec. 7).

Four schemes manage a server whose cores each time-share one LC app copy
with one batch app (memory system partitioned):

* **RubikColoc** — Rubik drives LC frequency; batch runs at its best
  throughput-per-watt frequency when the LC queue is empty.
* **StaticColoc** — LC at the StaticOracle frequency (tuned without
  interference, which is why it under-provisions); batch at best TPW.
* **HW-T** — every 100 us, a chip-level controller assigns per-core
  frequencies maximizing aggregate instruction throughput under the
  package power budget (TDP minus the fixed uncore/DRAM floor),
  oblivious to LC deadlines (Turbo-Boost-style).
* **HW-TPW** — same cadence, maximizing aggregate throughput per *package*
  watt (fixed platform power amortizes into the ratio, as hardware
  energy-efficiency governors see package power, not core power).

HW-T/HW-TPW allocate watts by marginal utility, so compute-bound batch
cores win the budget and LC cores are starved exactly when they queue —
the mechanism behind the tail blowups in Fig. 15. Server LC apps also
retire fewer instructions per cycle than SPEC compute apps
(``LC_IPC_FACTOR``), so they systematically lose the watts race.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CmpConfig, check_finite
from repro.core.controller import Rubik
from repro.power.model import CorePowerModel, CoreState
from repro.schemes.base import Scheme, SchemeContext, overrides
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request

#: HW schemes re-evaluate every 100 us (paper Sec. 7).
HW_SCHEME_PERIOD_S = 100e-6

#: Fixed package power (uncore + DRAM idle floor) the HW governors see.
PACKAGE_FIXED_POWER_W = 13.0

#: Server LC apps retire fewer instructions per cycle than SPEC compute
#: apps (branchy, pointer-chasing code), so oblivious throughput-greedy
#: allocators systematically deprioritize them.
LC_IPC_FACTOR = 0.6


class RubikColocScheme(Rubik):
    """Rubik, unchanged, on a core with a background batch task.

    The core model itself hands the core to the batch app (at the batch
    app's preferred frequency) whenever the LC queue drains; Rubik only
    ever constrains frequency while LC requests are in the system.
    """

    @property
    def name(self) -> str:  # type: ignore[override]
        return "RubikColoc"


class StaticColocScheme(Scheme):
    """StaticOracle frequency for LC work; batch at best TPW when idle."""

    name = "StaticColoc"

    def __init__(self, lc_freq_hz: float) -> None:
        if lc_freq_hz <= 0:
            raise ValueError("frequency must be positive")
        self.lc_freq_hz = lc_freq_hz

    def initial_frequency(self) -> float:
        return self.lc_freq_hz

    def on_arrival(self, core: Core, request: Request) -> None:
        core.request_frequency(self.lc_freq_hz)

    def on_completion(self, core: Core, request: Request) -> None:
        if core.queue_length > 0:
            core.request_frequency(self.lc_freq_hz)
        # else: the core hands over to batch at its preferred frequency.

    def native_session(self, sim: Simulator, core: Core, trace):
        """The C span loop under its fixed LC policy, unless a subclass
        replaces an event hook."""
        if overrides(self, StaticColocScheme):
            return None
        # Imported on first use, like Rubik's.
        from repro.core._native.session import LC_FIXED, NativeRunSession

        return NativeRunSession.create(sim, core, self, trace, LC_FIXED,
                                       self.lc_freq_hz)


class ChipLevelAllocator:
    """Shared chip controller for the HW-T / HW-TPW schemes.

    Every ``period_s`` it observes what each core is running (an LC
    request or its batch app), models each occupant's instruction
    throughput versus frequency, and assigns per-core frequencies. An
    LC occupant is modeled by ``lc_demand``, the LC app's mean
    ``(compute cycles, memory seconds)`` per request, so the
    assignment is a function of occupant types alone:

    * objective ``"throughput"`` (HW-T): greedy marginal-IPS-per-watt
      ascent until the TDP is exhausted;
    * objective ``"tpw"`` (HW-TPW): each core at the frequency maximizing
      its own occupant's throughput per watt (maximizing the aggregate
      ratio decomposes per-core when cores are independent).

    Each occupant type's throughput and power at every grid step are
    computed once per allocator (:meth:`_row`), and both greedy ascents
    index those rows.

    Ticks are lazy. The allocator listens to its cores, and a tick is
    queued only after an arrival or a completion (and once at the
    start): with no core event since the last tick, a tick would
    re-request the frequencies already in effect, which
    ``DvfsDomain.request`` returns from without a retarget. A queued
    tick lands on the same chain of boundaries the every-period timer
    made, ``t = t + period`` from the last tick, at the first boundary
    after the event, and no later than ``horizon_s``. As before, a tick
    tied with an arrival fires first (timers have priority 0). The one
    order this cannot repeat is an exact float tie between a
    completion and a tick boundary, which the simulator breaks by
    sequence number: a lazily queued tick is scheduled at a different
    moment than the timer chain would have scheduled it.
    """

    def __init__(
        self,
        sim: Simulator,
        cores: Sequence[Core],
        cmp_config: CmpConfig,
        power: CorePowerModel,
        objective: str = "throughput",
        lc_demand: Optional[Tuple[float, float]] = None,
        period_s: float = HW_SCHEME_PERIOD_S,
        horizon_s: Optional[float] = None,
    ) -> None:
        if objective not in ("throughput", "tpw"):
            raise ValueError("objective must be 'throughput' or 'tpw'")
        # A zero period would walk the tick chain forever.
        check_finite("period_s", period_s, positive=True)
        if lc_demand is not None and (lc_demand[0] <= 0
                                      or lc_demand[1] < 0):
            raise ValueError("lc_demand needs positive mean cycles and "
                             "non-negative mean memory time")
        self.sim = sim
        self.cores = list(cores)
        self.cmp = cmp_config
        self.power = power
        self.objective = objective
        self.lc_demand = lc_demand
        self.period_s = period_s
        self.horizon_s = horizon_s
        # The assignment depends only on each core's occupant *type*
        # (which batch app, or the LC app): an LC occupant is modeled by
        # its app's mean demand split, never by the request in service,
        # so allocations are memoized on that key — there are at most
        # 2^cores distinct states.
        self._cache: dict = {}
        self._grid = self.cores[0].dvfs.config.frequencies
        #: Occupant type -> (IPS, power) at every grid step; the LC row
        #: is built when an "lc" key first appears.
        self._rows: Dict[str, Tuple[List[float], List[float]]] = {}
        backgrounds = [core.background for core in self.cores
                       if core.background is not None]
        self._batch_by_name = {
            task.profile.name: task  # type: ignore[attr-defined]
            for task in backgrounds}
        #: The tick chain's last boundary at or before the clock.
        self._boundary = sim.now
        self._queued = True
        sim.schedule_after(period_s, self._tick)
        for core in self.cores:
            core.add_listener(self)

    # ------------------------------------------------------------------
    # Core listener: an occupant may have changed, so a tick is owed.
    # ------------------------------------------------------------------
    def on_arrival(self, core: Core, request: Request) -> None:
        if not self._queued:
            self._queue_tick()

    def on_completion(self, core: Core, request: Request) -> None:
        if not self._queued:
            self._queue_tick()

    def _queue_tick(self) -> None:
        """Queue a tick at the chain's first boundary after now."""
        now = self.sim.now
        boundary = self._boundary
        nxt = boundary + self.period_s
        while nxt <= now:
            boundary = nxt
            nxt = boundary + self.period_s
        self._boundary = boundary
        if self.horizon_s is not None and nxt > self.horizon_s:
            return
        self._queued = True
        self.sim.schedule(nxt, self._tick)

    def occupant_key(self, serving: Sequence[bool]) -> Tuple[str, ...]:
        """The memo key of the cores' occupant types, ``serving[c]``
        true while core ``c`` serves an LC request: ``"lc"``, else the
        core's batch app's name, else ``"idle"`` (the native chip loop
        keys its table rows through here too)."""
        return tuple(
            "lc" if lc
            else "idle" if core.background is None
            else core.background.profile.name  # type: ignore[attr-defined]
            for core, lc in zip(self.cores, serving))

    def _current_key(self) -> Tuple[str, ...]:
        return self.occupant_key([c.current is not None for c in self.cores])

    # ------------------------------------------------------------------
    def _lc_mean_demand(self) -> Tuple[float, float]:
        if self.lc_demand is None:
            raise ValueError("an LC request is in service but the "
                             "allocator was built without lc_demand")
        return self.lc_demand

    def _row(self, occupant: str) -> Tuple[List[float], List[float]]:
        """(instruction throughput, power) of one occupant type at every
        grid step: ``"idle"``, ``"lc"`` or a batch app's name."""
        row = self._rows.get(occupant)
        if row is not None:
            return row
        grid = self._grid
        busy_power = self.power.busy_power
        if occupant == "idle":
            ips = [0.0] * len(grid)
            power = [self.power.sleep_power_w] * len(grid)
        elif occupant == "lc":
            demand = self._lc_mean_demand()
            cycles, mem_s = demand
            ips = [_lc_ips(demand, f) for f in grid]
            power = []
            for f in grid:
                total = cycles / f + mem_s
                mem_frac = mem_s / total if total > 0 else 0.0
                power.append(busy_power(f, mem_frac))
        else:
            task = self._batch_by_name[occupant]
            ips = [task.profile.throughput(f) for f in grid]
            power = [busy_power(f, task.mem_stall_frac(f)) for f in grid]
        row = self._rows[occupant] = (ips, power)
        return row

    def _assign_throughput(self, key: Sequence[str]) -> List[float]:
        """Greedy marginal IPS/W ascent under the package power budget,
        for the occupant types ``key``, one per core."""
        grid = self._grid
        rows = [self._row(k) for k in key]
        levels = [0] * len(rows)
        budget = self.cmp.tdp_watts - PACKAGE_FIXED_POWER_W
        spent = sum(power[0] for _, power in rows)
        while True:
            best_gain, best_core = 0.0, -1
            for ci, (ips, power) in enumerate(rows):
                li = levels[ci]
                if li + 1 >= len(grid):
                    continue
                d_ips = ips[li + 1] - ips[li]
                d_p = power[li + 1] - power[li]
                if spent + d_p > budget or d_p <= 0:
                    continue
                gain = d_ips / d_p
                if gain > best_gain:
                    best_gain, best_core = gain, ci
            if best_core < 0:
                break
            li = levels[best_core]
            power = rows[best_core][1]
            spent += power[li + 1] - power[li]
            levels[best_core] += 1
        return [grid[l] for l in levels]

    def _assign_tpw(self, key: Sequence[str]) -> List[float]:
        """Greedy ascent maximizing aggregate IPS per package watt, for
        the occupant types ``key``, one per core.

        Raising a core one step improves the global ratio iff the step's
        marginal IPS/W exceeds the current aggregate ratio; the fixed
        package power keeps the optimum away from the bottom of the grid.
        """
        grid = self._grid
        rows = [self._row(k) for k in key]
        levels = [0] * len(rows)
        total_ips = sum(ips[0] for ips, _ in rows)
        total_p = PACKAGE_FIXED_POWER_W + sum(power[0] for _, power in rows)
        improved = True
        while improved:
            improved = False
            ratio = total_ips / total_p
            best_gain, best_core, best_d = ratio, -1, (0.0, 0.0)
            for ci, (ips, power) in enumerate(rows):
                li = levels[ci]
                if li + 1 >= len(grid):
                    continue
                d_ips = ips[li + 1] - ips[li]
                d_p = power[li + 1] - power[li]
                if d_p <= 0:
                    continue
                gain = d_ips / d_p
                if gain > best_gain:
                    best_gain, best_core, best_d = gain, ci, (d_ips, d_p)
            if best_core >= 0:
                levels[best_core] += 1
                total_ips += best_d[0]
                total_p += best_d[1]
                improved = True
        return [grid[l] for l in levels]

    def assignment(self, key: Tuple[str, ...]) -> List[float]:
        """Each core's frequency for the occupant types ``key``,
        memoized (the native chip loop fills its table from here)."""
        freqs = self._cache.get(key)
        if freqs is None:
            freqs = (self._assign_throughput(key)
                     if self.objective == "throughput"
                     else self._assign_tpw(key))
            self._cache[key] = freqs
        return freqs

    def _tick(self) -> None:
        self._queued = False
        self._boundary = self.sim.now
        freqs = self.assignment(self._current_key())
        for core, f in zip(self.cores, freqs):
            core.dvfs.request(f)


def _lc_ips(lc_demand: Tuple[float, float], freq_hz: float) -> float:
    """Generic LC throughput model for the HW allocator.

    Treats an LC occupant as a stream of instructions whose
    compute/memory split is the app's mean demand split
    ``(mean cycles, mean memory seconds)``. It deliberately ignores the
    request in service: per-request splits vary (the two demand
    components are drawn independently), and a model reading them would
    let whichever request was in service first fix the memoized
    allocation for the whole run. Normalized units cancel in the
    allocator's marginal comparisons.
    """
    cycles, mem_s = lc_demand
    # Seconds per "cycle of demand": 1/f compute + proportional memory.
    sec_per_cycle = 1.0 / freq_hz + mem_s / cycles
    return LC_IPC_FACTOR / sec_per_cycle


class HwScheme(Scheme):
    """Per-core stub for HW-T / HW-TPW: the chip allocator owns frequency.

    The scheme itself does nothing on arrivals/completions — exactly the
    point: hardware DVFS is oblivious to the application's deadlines.
    """

    def __init__(self, objective: str) -> None:
        if objective not in ("throughput", "tpw"):
            raise ValueError("objective must be 'throughput' or 'tpw'")
        self.objective = objective

    @property
    def name(self) -> str:  # type: ignore[override]
        return "HW-T" if self.objective == "throughput" else "HW-TPW"

    def initial_frequency(self) -> float:
        return self.context.dvfs.nominal_hz
