"""Request traces: generation, capture, and replay.

The paper's trace-driven characterization (Sec. 5.3) captures per-request
arrival times, core cycles, and memory-bound times, then replays the trace
under different schemes so all schemes see identical work. :class:`Trace`
is that artifact: a columnar record of demands that can be turned into
fresh :class:`~repro.sim.request.Request` objects for event-driven
simulation, or replayed analytically (the oracles).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.sim.arrivals import LoadSchedule, generate_poisson_arrivals
from repro.sim.request import Request
from repro.workloads.base import AppProfile


@dataclasses.dataclass
class Trace:
    """Columnar request trace (arrival order).

    Attributes:
        arrivals: arrival times, seconds, nondecreasing.
        compute_cycles: frequency-scalable demand per request.
        memory_time_s: frequency-invariant demand per request.
        predicted_cycles: hint-based demand predictions available at
            arrival (Adrenaline's input); defaults to the true demand.

    Every column is stored as float64 (a float64 input is kept as is):
    the oracle searches mix columns with Python-float frequencies, and
    the native loops read doubles, so a narrower column would round
    their arithmetic differently from a full replay's.
    """

    arrivals: np.ndarray
    compute_cycles: np.ndarray
    memory_time_s: np.ndarray
    predicted_cycles: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.arrivals = np.asarray(self.arrivals, dtype=np.float64)
        self.compute_cycles = np.asarray(self.compute_cycles,
                                         dtype=np.float64)
        self.memory_time_s = np.asarray(self.memory_time_s,
                                        dtype=np.float64)
        n = len(self.arrivals)
        if len(self.compute_cycles) != n or len(self.memory_time_s) != n:
            raise ValueError("trace columns must have equal length")
        if n == 0:
            raise ValueError("trace must contain at least one request")
        if np.any(np.diff(self.arrivals) < 0):
            raise ValueError("arrivals must be nondecreasing")
        if self.predicted_cycles is None:
            self.predicted_cycles = self.compute_cycles.copy()
        else:
            self.predicted_cycles = np.asarray(self.predicted_cycles,
                                               dtype=np.float64)
            if len(self.predicted_cycles) != n:
                raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.arrivals)

    @classmethod
    def generate(
        cls,
        app: AppProfile,
        schedule: LoadSchedule,
        num_requests: Optional[int] = None,
        seed: int = 0,
    ) -> "Trace":
        """Sample a trace for ``app`` under the given arrival schedule.

        Args:
            app: application service-demand model.
            schedule: arrival-rate schedule.
            num_requests: number of requests (defaults to the app's paper
                request count, Table 3).
            seed: RNG seed (one seed drives arrivals and demands).
        """
        n = num_requests if num_requests is not None else app.num_requests
        rng = np.random.default_rng(seed)
        arrivals = generate_poisson_arrivals(schedule, n, rng)
        cycles, memory_s = app.sample_demands(n, rng)
        predicted = app.predict_demands(cycles, rng)
        return cls(arrivals, cycles, memory_s, predicted)

    @classmethod
    def generate_at_load(
        cls,
        app: AppProfile,
        load: float,
        num_requests: Optional[int] = None,
        seed: int = 0,
    ) -> "Trace":
        """Convenience: constant-load trace (load relative to saturation).

        Raises ``ValueError`` unless ``load`` is finite and > 0 (see
        :meth:`AppProfile.rate_for_load`).
        """
        schedule = LoadSchedule.constant(app.rate_for_load(load))
        return cls.generate(app, schedule, num_requests, seed)

    def to_requests(self) -> List[Request]:
        """Materialize fresh Request objects (independent per replay)."""
        return [
            Request(
                rid=i,
                arrival_time=float(self.arrivals[i]),
                compute_cycles=float(self.compute_cycles[i]),
                memory_time_s=float(self.memory_time_s[i]),
                predicted_cycles=float(self.predicted_cycles[i]),
            )
            for i in range(len(self))
        ]

    def duration(self) -> float:
        """Time span of the arrival process."""
        return float(self.arrivals[-1] - self.arrivals[0])
