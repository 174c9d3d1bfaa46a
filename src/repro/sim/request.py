"""Request records: demand, progress, and completion bookkeeping.

A request carries two independent demands (paper Sec. 4.1, "Core DVFS and
memory"):

* ``compute_cycles``: work that scales with core frequency,
* ``memory_time_s``: stall time on LLC/DRAM, invariant to core DVFS.

Execution interleaves the two proportionally: while running at frequency
``f``, a request's remaining wall-clock time is ``C_rem/f + M_rem``, and
progress consumes both budgets at the same fractional rate. This matches
how CPI stacks attribute cycles (compute vs. memory-bound) without
simulating individual misses.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(slots=True)
class Request:
    """A single latency-critical request.

    Attributes:
        rid: unique id within a run (arrival order).
        arrival_time: when the request entered the system.
        compute_cycles: total frequency-scalable demand, in cycles.
        memory_time_s: total frequency-invariant stall time, in seconds.
        start_time: when service first began (None while queued).
        finish_time: when service completed (None while in the system).
    """

    rid: int
    arrival_time: float
    compute_cycles: float
    memory_time_s: float
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    # Fraction of total demand already executed, in [0, 1].
    progress: float = 0.0
    # Hint-based demand prediction available at arrival (None when the
    # workload offers no hints); consumed by Adrenaline-style schemes.
    predicted_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.memory_time_s < 0:
            raise ValueError("demands must be non-negative")
        if self.compute_cycles == 0 and self.memory_time_s == 0:
            raise ValueError("request must have positive demand")

    # ------------------------------------------------------------------
    # Demand accounting
    # ------------------------------------------------------------------
    def service_time_at(self, freq_hz: float) -> float:
        """Total (uninterrupted) service time at a fixed frequency."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.compute_cycles / freq_hz + self.memory_time_s

    def remaining_time_at(self, freq_hz: float) -> float:
        """Wall-clock time to finish the remaining demand at ``freq_hz``."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        rem = 1.0 - self.progress
        return rem * (self.compute_cycles / freq_hz + self.memory_time_s)

    def advance(self, duration: float, freq_hz: float) -> None:
        """Execute for ``duration`` seconds at ``freq_hz``, updating progress."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        total = self.compute_cycles / freq_hz + self.memory_time_s
        if total <= 0:
            self.progress = 1.0
            return
        self.progress = min(1.0, self.progress + duration / total)

    @property
    def done(self) -> bool:
        return self.progress >= 1.0 - 1e-12

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def response_time(self) -> float:
        """End-to-end latency (queueing + service). Requires completion."""
        if self.finish_time is None:
            raise ValueError("request has not finished")
        return self.finish_time - self.arrival_time

    @property
    def queueing_time(self) -> float:
        """Time spent waiting before first service. Requires a start time."""
        if self.start_time is None:
            raise ValueError("request has not started")
        return self.start_time - self.arrival_time
