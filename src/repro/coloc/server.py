"""Colocated-server simulation: 6 cores, each time-sharing LC + batch.

The paper's colocated server (Fig. 13b) runs one copy of the LC app per
core plus a 6-app batch mix, one batch app per core, over a partitioned
memory system. Partitioning makes cores independent except for (a) the
chip-level HW-T/HW-TPW allocators and (b) the shared TDP; both are
modeled by :class:`~repro.coloc.schemes.ChipLevelAllocator`.

So only HW-T and HW-TPW step their cores through one coupled event
loop, whose allocator ticks only after a core event: the native chip
loop (:class:`repro.core._native.session.NativeChipSession`) when the
library loads, else the Python loop on one shared simulator. Under
RubikColoc and StaticColoc each core runs alone, on its own simulator,
through :func:`repro.sim.server.serve` (the C span loop when the
library loads); the cores share only the server's end, the latest of
their last completions, where every core's last segment closes. LC
latencies are read off each core's completion columns, so a native
core builds no ``Request`` records.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import DEFAULT_CMP, check_size
from repro.coloc.batch import BatchAppProfile, BatchTask
from repro.coloc.interference import (
    MicroarchInterference,
    footprint_penalty_cycles,
)
from repro.coloc.schemes import (
    ChipLevelAllocator,
    HwScheme,
    RubikColocScheme,
    StaticColocScheme,
)
from repro.power.model import DEFAULT_CORE_POWER
from repro.schemes.base import Scheme, SchemeContext
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request
from repro.sim.server import feed_arrivals, serve
from repro.sim.trace import Trace
from repro.workloads.base import AppProfile, check_load

#: The colocation schemes evaluated in Fig. 15.
COLOC_SCHEME_NAMES = ("RubikColoc", "StaticColoc", "HW-T", "HW-TPW")

#: LC completions per core excluded from latency (queue fill-in).
WARMUP_PER_CORE = 50

#: The schemes whose chip allocator couples the cores' event loops.
_COUPLED_SCHEMES = ("HW-T", "HW-TPW")


@dataclasses.dataclass
class ColocResult:
    """Outcome of one colocated-server run."""

    scheme: str
    lc_response_times: np.ndarray
    duration_s: float
    core_energy_j: float
    lc_busy_time_s: float
    batch_time_s: float
    num_cores: int
    batch_instructions: Dict[str, float]
    interference_penalty_cycles: float

    def tail_latency(self, pct: float = 95.0) -> float:
        """Tail latency over completed LC requests.

        ``NaN`` when no LC request completed (an overloaded server):
        at fleet scale one starved server must surface as a flagged
        per-server value the NaN-aware aggregation counts
        (:meth:`repro.fleet.state.FleetState.overloaded_count`), not
        an exception that aborts the whole shard.
        """
        if self.lc_response_times.size == 0:
            return float("nan")
        return float(np.percentile(self.lc_response_times, pct))

    @property
    def mean_core_power_w(self) -> float:
        """Average power of all cores combined."""
        if self.duration_s <= 0:
            return 0.0
        return self.core_energy_j / self.duration_s

    @property
    def core_utilization(self) -> float:
        """Fraction of core-time doing any work (LC + batch)."""
        total = self.duration_s * self.num_cores
        if total <= 0:
            return 0.0
        return (self.lc_busy_time_s + self.batch_time_s) / total

    def batch_throughput(self, name: str) -> float:
        """Instructions/second for one batch app over the whole run."""
        if self.duration_s <= 0:
            return 0.0
        return self.batch_instructions.get(name, 0.0) / self.duration_s


class _CompletionCount:
    """Core listener counting LC completions server-wide, so the run
    loop's stop test costs O(1) per event instead of a sum over cores."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def on_arrival(self, core: Core, request: Request) -> None:
        pass

    def on_completion(self, core: Core, request: Request) -> None:
        self.count += 1


def _run_coupled(sim: Simulator, cores: List[Core], traces: List[Trace],
                 objective: str, lc_demand, horizon: float) -> float:
    """Step an HW-T/HW-TPW server's cores and chip allocator on ``sim``
    until every LC request has completed, or past ``horizon``; returns
    the stop time.

    The loop steps arrivals, completions and the allocator's ticks,
    which it queues only after a core event (one tick at the first
    100 us boundary after it), so idle stretches cost no ticks. The
    native chip loop runs it when the library loads and the server is
    one it models (:meth:`NativeChipSession.create`), else this Python
    loop does, in the same order. The horizon cap is a safety net for a
    wedged run (completions always drain queued work, so the completion
    count normally ends the loop long before `max arrival + 100 s`; the
    chip loop asserts that it did). The per-core runs have no timers
    and drain by construction, so only this loop needs it. Note: since
    DVFS transitions apply lazily (no FREQ_CHANGE heap events), the cap
    is checked at arrival/completion/allocator-tick granularity only —
    a capped run can process a few more of those than the event-driven
    machinery would have.
    """
    allocator = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective=objective,
                                   lc_demand=lc_demand, horizon_s=horizon)
    # Imported on first use: a process that runs no HW server skips it.
    from repro.core._native.session import NativeChipSession

    session = NativeChipSession.create(sim, allocator, traces)
    if session is not None:
        return session.run()
    completions = _CompletionCount()
    for core, trace in zip(cores, traces):
        core.add_listener(completions)
        feed_arrivals(sim, core, trace.to_requests())
    total = sum(len(trace) for trace in traces)
    while completions.count < total:
        if not sim.step():
            break
        if sim.now > horizon:
            break
    return sim.now


def make_coloc_scheme(name: str, lc_static_hz: Optional[float] = None) -> Scheme:
    """Factory for the per-core scheme of each colocation policy."""
    if name == "RubikColoc":
        return RubikColocScheme()
    if name == "StaticColoc":
        if lc_static_hz is None:
            raise ValueError("StaticColoc requires a tuned LC frequency")
        return StaticColocScheme(lc_static_hz)
    if name == "HW-T":
        return HwScheme("throughput")
    if name == "HW-TPW":
        return HwScheme("tpw")
    raise ValueError(f"unknown colocation scheme {name!r}; "
                     f"available: {COLOC_SCHEME_NAMES}")


def run_colocated_server(
    app: AppProfile,
    load: float,
    mix: Sequence[BatchAppProfile],
    scheme_name: str,
    context: SchemeContext,
    seed: int = 0,
    requests_per_core: Optional[int] = None,
) -> ColocResult:
    """Simulate one colocated server under one scheme.

    The server is the paper's: ``DEFAULT_CMP`` cores with
    ``DEFAULT_CORE_POWER`` each, and post-batch LC requests pay a
    refill penalty scaled to the LC app's footprint.

    Args:
        app: the latency-critical application (one copy per core).
        load: LC load fraction of per-core saturation.
        mix: batch apps, one per core (padded cyclically if shorter).
        scheme_name: one of ``COLOC_SCHEME_NAMES``.
        context: latency bound and machine configuration.
        seed: base RNG seed (core ``i`` uses ``seed*100 + i``).
        requests_per_core: LC requests per core (default: app's paper
            count split across cores, at least 500); a ``ValueError``
            names it unless it is a whole number >= 1.
    """
    if not mix:
        raise ValueError("mix must contain at least one batch app")
    check_load(load)
    lc_demand = app.mean_demands()
    penalty = footprint_penalty_cycles(lc_demand[0])
    n_cores = DEFAULT_CMP.num_cores
    if requests_per_core is None:
        n_req = max(500, app.num_requests // n_cores)
    else:
        n_req = check_size("requests_per_core", requests_per_core)

    # StaticColoc's LC frequency is tuned interference-free (that blind
    # spot is the point of the comparison).
    lc_static_hz = None
    if scheme_name == "StaticColoc":
        tuning_trace = Trace.generate_at_load(app, load, n_req, seed=seed * 100 + 91)
        lc_static_hz = find_static_frequency(
            tuning_trace, context.latency_bound_s, context)

    shared = Simulator() if scheme_name in _COUPLED_SCHEMES else None
    cores: List[Core] = []
    tasks: List[BatchTask] = []
    interferences: List[MicroarchInterference] = []
    traces: List[Trace] = []
    for ci in range(n_cores):
        sim = shared if shared is not None else Simulator()
        profile = mix[ci % len(mix)]
        task = BatchTask(profile, context.dvfs, DEFAULT_CORE_POWER)
        interference = MicroarchInterference(max_penalty_cycles=penalty)
        core = Core(
            sim,
            context.dvfs,
            DEFAULT_CORE_POWER,
            background=task,
            interference_cycles=interference,
        )
        scheme = make_coloc_scheme(scheme_name, lc_static_hz)
        trace = Trace.generate_at_load(app, load, n_req, seed=seed * 100 + ci)
        if shared is not None:
            scheme.setup(sim, core, context)
            traces.append(trace)
        else:
            # Runs the core to its last completion, alone.
            serve(sim, core, scheme, context, trace)
        cores.append(core)
        tasks.append(task)
        interferences.append(interference)

    if shared is not None:
        objective = "throughput" if scheme_name == "HW-T" else "tpw"
        horizon = max(trace.arrivals[-1] for trace in traces) + 100.0
        end = _run_coupled(shared, cores, traces, objective, lc_demand,
                           horizon)
    else:
        # The server ends at the latest last completion; each core's
        # clock moves there so its last (batch) segment closes where
        # the coupled loop would close it. As there, in-flight DVFS
        # transitions are not settled.
        end = max(core.sim.now for core in cores)
        for core in cores:
            core.sim.advance_to(end)
    for core in cores:
        core.finalize()

    lc_latencies = np.concatenate([
        core.completion_columns().response_times()[WARMUP_PER_CORE:]
        for core in cores
    ])
    batch_instr: Dict[str, float] = {}
    for task in tasks:
        batch_instr[task.profile.name] = (
            batch_instr.get(task.profile.name, 0.0) + task.instructions)

    return ColocResult(
        scheme=scheme_name,
        lc_response_times=lc_latencies,
        duration_s=end,
        core_energy_j=sum(c.meter.energy_j for c in cores),
        lc_busy_time_s=sum(c.meter.busy_time_s for c in cores),
        batch_time_s=sum(c.meter.batch_time_s for c in cores),
        num_cores=n_cores,
        batch_instructions=batch_instr,
        interference_penalty_cycles=sum(
            i.total_penalty_cycles for i in interferences),
    )
