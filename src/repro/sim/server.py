"""Single-core server harness: wire a trace, a scheme, and a core together.

The paper simulates a 6-core CMP where each core runs an independent copy
of the application over a partitioned memory system (Table 2), so cores
are statistically independent; a server run is therefore one core's run
(or several merged, see :func:`repro.experiments.common.run_replicas`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DvfsConfig
from repro.power.model import DEFAULT_CORE_POWER, CorePowerModel
from repro.schemes.base import Scheme, SchemeContext
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import CompletionColumns, Request
from repro.sim.trace import Trace

#: Arrival events fire after completions at the same timestamp, so a
#: back-to-back departure/arrival sees the queue already drained.
ARRIVAL_PRIORITY = 1


@dataclasses.dataclass
class RunResult:
    """Outcome of one simulated run.

    Metric helpers exclude the warmup prefix (queue fill-in transient)
    unless asked otherwise, and read the completion columns: only
    :attr:`requests` builds :class:`Request` records.
    """

    completions: CompletionColumns
    warmup: int
    duration_s: float
    energy_j: float
    active_energy_j: float
    idle_energy_j: float
    busy_time_s: float
    utilization: float
    busy_freq_hist: Dict[float, float]
    dvfs_transitions: int
    freq_history: List[Tuple[float, float]]
    segment_log: Optional[List[Tuple[float, float, float]]] = None
    #: Simulator events fired during the run (benchmark denominator for
    #: events/sec; arrivals + completions + DVFS transitions + timers).
    events_processed: int = 0

    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[Request]:
        """Completed requests, in completion order."""
        return self.completions.requests()

    def response_times(self, include_warmup: bool = False) -> np.ndarray:
        lats = self.completions.response_times()
        return lats if include_warmup else lats[self.warmup:]

    def service_times(self) -> np.ndarray:
        """Observed service times (start to finish) of measured requests."""
        return self.completions.service_times()[self.warmup:]

    def tail_latency(self, pct: float = 95.0) -> float:
        lats = self.response_times()
        if lats.size == 0:
            raise ValueError("no measured requests")
        return float(np.percentile(lats, pct))

    def violation_rate(self, bound_s: float) -> float:
        """Fraction of measured requests above the latency bound."""
        lats = self.response_times()
        if lats.size == 0:
            raise ValueError("no measured requests")
        return float(np.mean(lats > bound_s))

    @property
    def mean_core_power_w(self) -> float:
        """Time-averaged core power (active + sleep) over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.energy_j / self.duration_s

    @property
    def energy_per_request_j(self) -> float:
        """Core energy per completed request (paper Figs. 1a, 9b)."""
        if not len(self.completions):
            raise ValueError("no completed requests")
        return self.energy_j / len(self.completions)


def feed_arrivals(sim: Simulator, core: Core,
                  requests: Sequence[Request]) -> None:
    """Deliver the time-sorted ``requests`` to ``core`` as arrivals.

    Arrivals are fed one at a time (each schedules its successor)
    instead of heaping the whole trace upfront: the heap holds one
    pending arrival per fed core, so every push/pop sifts over a few
    entries instead of O(log n). A core's arrivals still fire in trace
    order, because the trace is time-sorted and each chained event gets
    a later sequence number than its predecessor.
    """

    def feed(index: int) -> None:
        req = requests[index]
        nxt = index + 1
        if nxt < len(requests):
            sim.schedule_entry(requests[nxt].arrival_time,
                               (lambda: feed(nxt)),
                               priority=ARRIVAL_PRIORITY)
        core.enqueue(req)

    if requests:
        sim.schedule_entry(requests[0].arrival_time, (lambda: feed(0)),
                           priority=ARRIVAL_PRIORITY)


def serve(sim: Simulator, core: Core, scheme: Scheme,
          context: SchemeContext, trace: Trace) -> None:
    """Bind ``scheme`` to ``core`` and serve ``trace`` until it drains.

    An eligible run (see :class:`repro.core._native.session.
    NativeRunSession`) hands the whole event loop to the C span kernel,
    and everything it exports is bitwise-identical to the Python loop;
    the session is dropped on return. The clock stops at the last
    event, with any in-flight DVFS transition left for the caller to
    settle or not.
    """
    scheme.setup(sim, core, context)
    session = scheme.native_session(sim, core, trace)
    if session is not None:
        session.run()
    else:
        feed_arrivals(sim, core, trace.to_requests())
        sim.run()


def run_trace(
    trace: Trace,
    scheme: Scheme,
    context: SchemeContext,
    power_model: CorePowerModel = DEFAULT_CORE_POWER,
    warmup: Optional[int] = None,
    log_segments: bool = False,
    dvfs_config: Optional[DvfsConfig] = None,
    record_freq_history: bool = False,
) -> RunResult:
    """Simulate one core serving ``trace`` under ``scheme``.

    Args:
        trace: the request trace (identical across schemes for fairness).
        scheme: the DVFS policy under test.
        context: latency bound and machine configuration.
        power_model: per-core power model for energy accounting.
        warmup: completed-request prefix excluded from latency metrics
            (default: 2% of the trace, at least 10, at most 200).
        log_segments: record per-segment power for power-over-time plots.
        dvfs_config: overrides ``context.dvfs`` when given.
        record_freq_history: populate ``RunResult.freq_history`` (one
            tuple per DVFS transition). Off by default — only the
            Fig. 1b/10 frequency-trace plots consume it; sweep drivers
            should leave it off.

    Returns:
        RunResult with per-request records and energy accounting.
    """
    sim = Simulator()
    dvfs = dvfs_config if dvfs_config is not None else context.dvfs
    core = Core(sim, dvfs, power_model, log_segments=log_segments,
                record_freq_history=record_freq_history)
    serve(sim, core, scheme, context, trace)
    # The event loop used to advance through trailing FREQ_CHANGE events;
    # with lazy transitions the fully-drained run settles explicitly.
    core.finalize(settle_dvfs=True)

    completions = core.completion_columns()
    if warmup is None:
        warmup = min(200, max(10, len(trace) // 50))
    if warmup >= len(completions):
        warmup = max(0, len(completions) - 1)

    meter = core.meter
    return RunResult(
        completions=completions,
        warmup=warmup,
        duration_s=sim.now,
        energy_j=meter.energy_j,
        active_energy_j=meter.active_energy_j,
        idle_energy_j=meter.idle_energy_j,
        busy_time_s=meter.busy_time_s,
        utilization=meter.utilization,
        busy_freq_hist=meter.busy_frequency_histogram(),
        dvfs_transitions=core.dvfs.transitions,
        freq_history=(list(core.dvfs.history)
                      if core.dvfs.history is not None else []),
        segment_log=core.segment_log,
        events_processed=sim.events_processed,
    )
