"""Unit tests for the chip-level HW-T/HW-TPW frequency allocator.

The allocator's greedy ascents index per-occupant tables; the per-call
greedy they replaced is kept below as the reference they must equal.
Its ticks are lazy (queued only after a core event); the every-period
timer chain they replaced is kept below as ``EagerAllocator``, and whole
colocated runs must come out the same under both. A subclassed
allocator keeps the coupled Python loop, so with the native library
loaded that comparison pins the C chip loop against the timer chain.
"""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest

from repro.coloc import server as coloc_server
from repro.coloc.batch import SPEC_BY_NAME, BatchTask, generate_mixes
from repro.coloc.schemes import (
    ChipLevelAllocator,
    PACKAGE_FIXED_POWER_W,
    _lc_ips,
)
from repro.coloc.server import run_colocated_server
from repro.config import DEFAULT_CMP, DEFAULT_DVFS
from repro.core._native import build
from repro.core._native.session import NativeChipSession
from repro.experiments.common import make_context
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request
from repro.workloads.apps import APPS, MASSTREE


def make_cores(batch_names, sim=None):
    sim = sim or Simulator()
    cores = []
    for name in batch_names:
        task = BatchTask(SPEC_BY_NAME[name], DEFAULT_DVFS,
                         DEFAULT_CORE_POWER)
        cores.append(Core(sim, DEFAULT_DVFS, DEFAULT_CORE_POWER,
                          background=task))
    return sim, cores


# -- reference: the greedy ascents, one model call per step ------------


def reference_occupant_ips(alloc, core, freq_hz):
    if core.current is not None:
        return _lc_ips(alloc._lc_mean_demand(), freq_hz)
    if core.background is not None:
        return core.background.profile.throughput(freq_hz)
    return 0.0


def reference_occupant_power(alloc, core, freq_hz):
    if core.current is None and core.background is None:
        return alloc.power.sleep_power_w
    if core.current is not None:
        cycles, mem_s = alloc._lc_mean_demand()
        total = cycles / freq_hz + mem_s
        mem_frac = mem_s / total if total > 0 else 0.0
    else:
        mem_frac = core.background.mem_stall_frac(freq_hz)
    return alloc.power.busy_power(freq_hz, mem_frac)


def reference_assign_throughput(alloc, cores):
    ips, power = reference_occupant_ips, reference_occupant_power
    grid = cores[0].dvfs.config.frequencies
    levels = [0] * len(cores)
    budget = alloc.cmp.tdp_watts - PACKAGE_FIXED_POWER_W
    spent = sum(power(alloc, c, grid[0]) for c in cores)
    while True:
        best_gain, best_core = 0.0, -1
        for ci, core in enumerate(cores):
            li = levels[ci]
            if li + 1 >= len(grid):
                continue
            d_ips = (ips(alloc, core, grid[li + 1])
                     - ips(alloc, core, grid[li]))
            d_p = (power(alloc, core, grid[li + 1])
                   - power(alloc, core, grid[li]))
            if spent + d_p > budget or d_p <= 0:
                continue
            gain = d_ips / d_p
            if gain > best_gain:
                best_gain, best_core = gain, ci
        if best_core < 0:
            break
        li = levels[best_core]
        spent += (power(alloc, cores[best_core], grid[li + 1])
                  - power(alloc, cores[best_core], grid[li]))
        levels[best_core] += 1
    return [grid[l] for l in levels]


def reference_assign_tpw(alloc, cores):
    ips, power = reference_occupant_ips, reference_occupant_power
    grid = cores[0].dvfs.config.frequencies
    levels = [0] * len(cores)
    total_ips = sum(ips(alloc, c, grid[0]) for c in cores)
    total_p = PACKAGE_FIXED_POWER_W + sum(
        power(alloc, c, grid[0]) for c in cores)
    improved = True
    while improved:
        improved = False
        ratio = total_ips / total_p
        best_gain, best_core, best_d = ratio, -1, (0.0, 0.0)
        for ci, core in enumerate(cores):
            li = levels[ci]
            if li + 1 >= len(grid):
                continue
            d_ips = (ips(alloc, core, grid[li + 1])
                     - ips(alloc, core, grid[li]))
            d_p = (power(alloc, core, grid[li + 1])
                   - power(alloc, core, grid[li]))
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


@pytest.mark.parametrize("objective", ["throughput", "tpw"])
def test_tables_match_per_call_greedy_on_every_occupant_key(objective):
    """Every LC/batch occupant key of three mixes: the table-driven
    assignment equals the per-call reference, float for float."""
    for mix in generate_mixes(3, seed=0):
        names = [profile.name for profile in mix]
        _, cores = make_cores(names)
        alloc = ChipLevelAllocator(Simulator(), cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective=objective,
                                   lc_demand=MASSTREE.mean_demands())
        assign = (alloc._assign_throughput if objective == "throughput"
                  else alloc._assign_tpw)
        reference = (reference_assign_throughput
                     if objective == "throughput" else reference_assign_tpw)
        for lc in itertools.product((False, True), repeat=len(names)):
            _, busy = make_cores(names)
            for core, serving in zip(busy, lc):
                if serving:
                    core.enqueue(Request(0, 0.0, 1e6, 1e-5))
            key = tuple("lc" if serving else name
                        for serving, name in zip(lc, names))
            assert assign(key) == reference(alloc, busy), key


class TestThroughputObjective:
    def test_budget_respected(self):
        sim, cores = make_cores(["namd", "povray", "hmmer",
                                 "mcf", "lbm", "milc"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER,
                                   objective="throughput")
        freqs = alloc._assign_throughput(alloc._current_key())
        spent = sum(reference_occupant_power(alloc, c, f)
                    for c, f in zip(cores, freqs))
        assert spent <= DEFAULT_CMP.tdp_watts - PACKAGE_FIXED_POWER_W + 1e-9

    def test_compute_bound_apps_win_watts(self):
        """Compute-bound batch apps get higher frequencies than
        memory-bound ones (the Fig. 15 starvation mechanism)."""
        sim, cores = make_cores(["namd", "mcf", "povray", "lbm",
                                 "hmmer", "libquantum"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER,
                                   objective="throughput")
        freqs = alloc._assign_throughput(alloc._current_key())
        by_name = {c.background.profile.name: f
                   for c, f in zip(cores, freqs)}
        assert by_name["namd"] > by_name["mcf"]
        assert by_name["povray"] > by_name["lbm"]


class TestTpwObjective:
    def test_not_parked_at_minimum(self):
        """The fixed package power keeps the TPW optimum off the grid
        floor (real governors amortize uncore power)."""
        sim, cores = make_cores(["namd", "povray", "hmmer",
                                 "gobmk", "sjeng", "calculix"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        freqs = alloc._assign_tpw(alloc._current_key())
        assert max(freqs) > DEFAULT_DVFS.min_hz

    def test_below_throughput_assignment(self):
        """TPW allocations never exceed throughput-max allocations in
        aggregate power."""
        sim, cores = make_cores(["namd", "mcf", "povray", "lbm",
                                 "hmmer", "libquantum"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        key = alloc._current_key()
        p_tpw = sum(reference_occupant_power(alloc, c, f)
                    for c, f in zip(cores, alloc._assign_tpw(key)))
        p_thr = sum(reference_occupant_power(alloc, c, f)
                    for c, f in zip(cores, alloc._assign_throughput(key)))
        assert p_tpw <= p_thr + 1e-9


class _RecordingAllocator(ChipLevelAllocator):
    """Records the time of every tick."""

    def _tick(self):
        self.ticks = getattr(self, "ticks", []) + [self.sim.now]
        super()._tick()


class TestTicking:
    def test_ticks_follow_core_events(self):
        """One tick at the start, then one at the first 100 us boundary
        after each core event; none while nothing changes."""
        sim, cores = make_cores(["namd", "mcf"])
        alloc = _RecordingAllocator(sim, cores, DEFAULT_CMP,
                                    DEFAULT_CORE_POWER, objective="tpw",
                                    lc_demand=MASSTREE.mean_demands(),
                                    horizon_s=1e-3)
        sim.schedule(4.5e-4, lambda: cores[0].enqueue(
            Request(0, 4.5e-4, compute_cycles=3e5, memory_time_s=1e-6)),
            priority=1)
        sim.run(until=1.1e-3)
        chain = [0.0]
        for _ in range(10):
            chain.append(chain[-1] + 1e-4)
        finish = cores[0].completed[0].finish_time
        after = min(t for t in chain if t > finish)
        # The start, the boundary after the arrival (4.5e-4), and the
        # boundary after its completion, each on the timer's own chain.
        assert finish > chain[5]
        assert alloc.ticks == [chain[1], chain[5], after]
        assert ("lc", "mcf") in alloc._cache

    def test_allocation_cached_by_occupant_key(self):
        sim, cores = make_cores(["namd", "mcf"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw",
                                   horizon_s=1e-3)
        sim.run(until=1.1e-3)
        # Occupants never changed (no LC work), so one cache entry.
        assert len(alloc._cache) == 1

    def test_rejects_bad_objective(self):
        sim, cores = make_cores(["namd"])
        with pytest.raises(ValueError):
            ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                               DEFAULT_CORE_POWER, objective="nope")

    @pytest.mark.parametrize("period", [0.0, -1e-4, float("nan"),
                                        float("inf")])
    def test_rejects_bad_period(self, period):
        """A zero period used to hang the first tick queued after a
        core event (the chain walk never passed the clock)."""
        sim, cores = make_cores(["namd"])
        with pytest.raises(ValueError, match="period_s"):
            ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                               DEFAULT_CORE_POWER, period_s=period)


class TestLcOccupantModel:
    """The LC occupant is modeled by its app's mean demand split, so an
    allocation is a function of occupant types alone — the memo keyed on
    those types is sound whichever request happens to be in service."""

    MIX = ["namd", "mcf", "povray", "lbm", "hmmer", "libquantum"]

    def _first_allocation(self, request, objective):
        sim, cores = make_cores(self.MIX)
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective=objective,
                                   lc_demand=MASSTREE.mean_demands())
        cores[0].enqueue(request)
        assert cores[0].current is request
        alloc._tick()
        assert list(alloc._cache) == [("lc",) + tuple(self.MIX[1:])]
        return next(iter(alloc._cache.values()))

    @pytest.mark.parametrize("objective", ["throughput", "tpw"])
    def test_allocation_ignores_request_in_service(self, objective):
        compute_heavy = Request(0, 0.0, compute_cycles=5e7,
                                memory_time_s=1e-7)
        memory_heavy = Request(0, 0.0, compute_cycles=1e3,
                               memory_time_s=5e-3)
        assert (self._first_allocation(compute_heavy, objective)
                == self._first_allocation(memory_heavy, objective))

    def test_lc_occupant_without_demand_model_rejected(self):
        sim, cores = make_cores(["namd", "mcf"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        cores[0].enqueue(Request(0, 0.0, 1e6, 1e-5))
        with pytest.raises(ValueError, match="lc_demand"):
            alloc._assign_tpw(alloc._current_key())

    @pytest.mark.parametrize("demand", [(0.0, 1e-5), (1e6, -1e-6)])
    def test_rejects_bad_lc_demand(self, demand):
        sim, cores = make_cores(["namd"])
        with pytest.raises(ValueError, match="lc_demand"):
            ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                               DEFAULT_CORE_POWER, lc_demand=demand)


# -- lazy ticks against the every-period timer chain -------------------


class EagerAllocator(ChipLevelAllocator):
    """The allocator before lazy ticks: a timer chain re-ticking every
    period up to the horizon, whatever the cores do."""

    def _queue_tick(self):
        pass

    def _tick(self):
        super()._tick()
        if self.horizon_s is None \
                or self.sim.now + self.period_s <= self.horizon_s:
            self._queued = True
            self.sim.schedule_after(self.period_s, self._tick)


LAZY_CASES = [(app, load, seed, mix) for app in sorted(APPS)
              for load in (0.5, 1.2) for seed in (3, 11) for mix in (0, 2)]


@pytest.mark.parametrize("scheme", ["HW-T", "HW-TPW"])
def test_lazy_ticks_match_the_timer_chain(scheme):
    mixes = generate_mixes(3, seed=0)
    for app, load, seed, mix in LAZY_CASES:
        context = make_context(APPS[app], seed, 120)
        args = (APPS[app], load, mixes[mix], scheme, context, seed, 60)
        lazy = run_colocated_server(*args)
        with mock.patch.object(coloc_server, "ChipLevelAllocator",
                               EagerAllocator):
            eager = run_colocated_server(*args)
        assert dataclasses.asdict(lazy).keys() == \
            dataclasses.asdict(eager).keys()
        for name, value in dataclasses.asdict(lazy).items():
            want = getattr(eager, name)
            if isinstance(value, np.ndarray):
                assert value.tolist() == want.tolist(), (app, load, name)
            else:
                assert value == want, (app, load, seed, mix, name)


@pytest.mark.native
@pytest.mark.skipif(not build.available(),
                    reason="native library unavailable")
@pytest.mark.parametrize("allocator_cls, chips", [
    (ChipLevelAllocator, 1), (EagerAllocator, 0), (_RecordingAllocator, 0)])
def test_only_the_plain_allocator_takes_the_chip_loop(allocator_cls,
                                                      chips):
    """``EagerAllocator`` and ``_RecordingAllocator`` run the coupled
    Python loop (the recorder sees its ticks); the plain allocator runs
    the C chip loop."""
    made, runs = [], []
    real_run = NativeChipSession.run

    def making(*args, **kwargs):
        made.append(allocator_cls(*args, **kwargs))
        return made[-1]

    def counting_run(self):
        runs.append(self)
        return real_run(self)

    context = make_context(MASSTREE, 3, 120)
    with mock.patch.object(coloc_server, "ChipLevelAllocator", making), \
            mock.patch.object(NativeChipSession, "run", counting_run):
        run_colocated_server(MASSTREE, 0.5, generate_mixes(1, seed=0)[0],
                             "HW-TPW", context, 3, 60)
    assert len(runs) == chips
    if allocator_cls is _RecordingAllocator:
        assert made[0].ticks

