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
from typing import List, Optional

import numpy as np


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


class CompletionColumns:
    """Completed requests as columns, in completion order.

    The native span loop leaves only these behind: :meth:`requests`
    builds the :class:`Request` records on its first call and keeps
    them. Metrics read the columns directly; :meth:`response_times` is
    ``finish - arrival``, the subtraction :attr:`Request.response_time`
    does, so both give the same floats.
    """

    __slots__ = ("arrival", "start", "finish", "cycles", "memory",
                 "predicted", "_requests")

    def __init__(self, arrival: np.ndarray, start: np.ndarray,
                 finish: np.ndarray, cycles: np.ndarray,
                 memory: np.ndarray, predicted: Optional[np.ndarray],
                 requests: Optional[List[Request]] = None) -> None:
        self.arrival = arrival
        self.start = start
        self.finish = finish
        #: Served compute cycles (an interference penalty included).
        self.cycles = cycles
        self.memory = memory
        self.predicted = predicted
        self._requests = requests

    @classmethod
    def from_requests(cls, requests: List[Request]) -> "CompletionColumns":
        """Columns of finished ``requests``, which :meth:`requests`
        then returns as they are."""
        rows = np.array([(r.arrival_time, r.start_time, r.finish_time,
                          r.compute_cycles, r.memory_time_s)
                         for r in requests], dtype=float).reshape(-1, 5)
        return cls(*rows.T, predicted=None, requests=requests)

    def __len__(self) -> int:
        return len(self.finish)

    def response_times(self) -> np.ndarray:
        """End-to-end latency of every request (queueing + service)."""
        return self.finish - self.arrival

    def service_times(self) -> np.ndarray:
        """Start-to-finish time of every request."""
        return self.finish - self.start

    def requests(self) -> List[Request]:
        """The :class:`Request` records (rid = completion index, as in
        the FIFO core), built on the first call."""
        if self._requests is None:
            cycles = self.cycles.tolist()
            memory = self.memory.tolist()
            predicted = self.predicted.tolist()
            self._requests = [
                Request(rid=i, arrival_time=arrival,
                        compute_cycles=cycles[i], memory_time_s=memory[i],
                        start_time=start, finish_time=finish, progress=1.0,
                        predicted_cycles=predicted[i])
                for i, (arrival, start, finish) in enumerate(zip(
                    self.arrival.tolist(), self.start.tolist(),
                    self.finish.tolist()))]
        return self._requests
