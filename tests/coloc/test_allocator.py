"""Unit tests for the chip-level HW-T/HW-TPW frequency allocator."""

import pytest

from repro.coloc.batch import SPEC_BY_NAME, BatchTask
from repro.coloc.schemes import (
    ChipLevelAllocator,
    PACKAGE_FIXED_POWER_W,
)
from repro.config import DEFAULT_CMP, DEFAULT_DVFS
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request
from repro.workloads.apps import MASSTREE


def make_cores(batch_names, sim=None):
    sim = sim or Simulator()
    cores = []
    for name in batch_names:
        task = BatchTask(SPEC_BY_NAME[name], DEFAULT_DVFS,
                         DEFAULT_CORE_POWER)
        cores.append(Core(sim, DEFAULT_DVFS, DEFAULT_CORE_POWER,
                          background=task))
    return sim, cores


class TestThroughputObjective:
    def test_budget_respected(self):
        sim, cores = make_cores(["namd", "povray", "hmmer",
                                 "mcf", "lbm", "milc"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER,
                                   objective="throughput")
        freqs = alloc._assign_throughput()
        spent = sum(
            alloc._occupant_power(c, f) for c, f in zip(cores, freqs))
        assert spent <= DEFAULT_CMP.tdp_watts - PACKAGE_FIXED_POWER_W + 1e-9

    def test_compute_bound_apps_win_watts(self):
        """Compute-bound batch apps get higher frequencies than
        memory-bound ones (the Fig. 15 starvation mechanism)."""
        sim, cores = make_cores(["namd", "mcf", "povray", "lbm",
                                 "hmmer", "libquantum"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER,
                                   objective="throughput")
        freqs = alloc._assign_throughput()
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
        freqs = alloc._assign_tpw()
        assert max(freqs) > DEFAULT_DVFS.min_hz

    def test_below_throughput_assignment(self):
        """TPW allocations never exceed throughput-max allocations in
        aggregate power."""
        sim, cores = make_cores(["namd", "mcf", "povray", "lbm",
                                 "hmmer", "libquantum"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        p_tpw = sum(alloc._occupant_power(c, f)
                    for c, f in zip(cores, alloc._assign_tpw()))
        p_thr = sum(alloc._occupant_power(c, f)
                    for c, f in zip(cores, alloc._assign_throughput()))
        assert p_tpw <= p_thr + 1e-9


class TestTicking:
    def test_periodic_reallocation(self):
        sim, cores = make_cores(["namd", "mcf"])
        ChipLevelAllocator(sim, cores, DEFAULT_CMP, DEFAULT_CORE_POWER,
                           objective="tpw", horizon_s=1e-3)
        sim.run(until=1.1e-3)
        # Ticks fired every 100 us up to the horizon.
        assert sim.events_processed >= 9

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
            alloc._assign_tpw()

    @pytest.mark.parametrize("demand", [(0.0, 1e-5), (1e6, -1e-6)])
    def test_rejects_bad_lc_demand(self, demand):
        sim, cores = make_cores(["namd"])
        with pytest.raises(ValueError, match="lc_demand"):
            ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                               DEFAULT_CORE_POWER, lc_demand=demand)
