"""Arrival processes: Poisson streams with (possibly time-varying) load.

The paper's clients produce exponentially distributed interarrival times (a
Markov input process, Sec. 5.1). Load is expressed as a fraction of the
saturation rate at nominal frequency; :class:`LoadSchedule` supports the
step patterns used in Figs. 1b and 10 (e.g. 25% -> 50% -> 75%).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class LoadSchedule:
    """Piecewise-constant arrival-rate schedule.

    Attributes:
        steps: (start_time_s, rate_qps) pairs with increasing start times;
            the first start time must be 0. Each rate applies from its
            start time until the next step (or forever for the last).
    """

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        if self.steps[0][0] != 0.0:
            raise ValueError("first step must start at time 0")
        times = [t for t, _ in self.steps]
        if times != sorted(times) or len(set(times)) != len(times):
            raise ValueError("step times must be strictly increasing")
        if any(rate < 0 for _, rate in self.steps):
            raise ValueError("rates must be non-negative")

    @classmethod
    def constant(cls, rate_qps: float) -> "LoadSchedule":
        return cls(((0.0, rate_qps),))

    @classmethod
    def from_loads(cls, load_steps: Sequence[Tuple[float, float]],
                   saturation_qps: float) -> "LoadSchedule":
        """Build from (start_time, load fraction) steps.

        ``load fraction`` is relative to ``saturation_qps``, the rate that
        saturates one core at nominal frequency (the paper's "100% load").
        """
        if saturation_qps <= 0:
            raise ValueError("saturation rate must be positive")
        return cls(tuple((t, frac * saturation_qps) for t, frac in load_steps))

    def rate_at(self, time: float) -> float:
        """Arrival rate in effect at ``time``."""
        rate = self.steps[0][1]
        for start, step_rate in self.steps:
            if time >= start:
                rate = step_rate
            else:
                break
        return rate

    def mean_rate(self, horizon_s: float) -> float:
        """Time-averaged rate over [0, horizon_s]."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        total = 0.0
        for i, (start, rate) in enumerate(self.steps):
            if start >= horizon_s:
                break
            end = self.steps[i + 1][0] if i + 1 < len(self.steps) else horizon_s
            total += rate * (min(end, horizon_s) - start)
        return total / horizon_s


def generate_poisson_arrivals(
    schedule: LoadSchedule,
    num_requests: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``num_requests`` arrival times from a Poisson process whose
    rate follows ``schedule``.

    Uses per-interval exponential gaps; when a gap crosses a schedule step
    the remaining exponential "work" is rescaled to the new rate (standard
    thinning-free simulation of a piecewise-constant-rate Poisson process,
    exploiting the memoryless property).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    steps: List[Tuple[float, float]] = list(schedule.steps)
    if len(steps) == 1 and steps[0][1] > 0:
        # One positive rate: the loop below is a sequential
        # ``t += work / rate``, which is what cumsum computes, and one
        # draw of n exponentials leaves the generator where n draws of
        # one would.
        return np.cumsum(rng.exponential(1.0, num_requests) / steps[0][1])
    arrivals = np.empty(num_requests)
    t = 0.0
    step_idx = 0
    for i in range(num_requests):
        # Exponential(1) work to consume at the current (varying) rate.
        work = rng.exponential(1.0)
        while True:
            rate = steps[step_idx][1]
            next_change = (
                steps[step_idx + 1][0] if step_idx + 1 < len(steps) else np.inf
            )
            if rate <= 0:
                # Zero-rate interval: jump to the next change point.
                if next_change == np.inf:
                    raise ValueError(
                        "schedule rate dropped to zero forever; cannot "
                        f"generate request {i}")
                t = next_change
                step_idx += 1
                continue
            dt = work / rate
            if t + dt <= next_change:
                t += dt
                break
            # Consume the portion of the exponential within this interval.
            work -= (next_change - t) * rate
            t = next_change
            step_idx += 1
        arrivals[i] = t
    return arrivals
