"""StaticOracle (paper Sec. 5.2).

For a given request trace, StaticOracle picks the *lowest static frequency*
whose replay meets the tail-latency bound. It is oracular (it sees the
whole trace offline) and upper-bounds feedback controllers such as Pegasus:
the paper notes it is identical to the iso-latency oracle that bounds
Pegasus's savings.
"""

from __future__ import annotations

from typing import Optional

from repro.schemes.base import Scheme, SchemeContext, check_bound
from repro.schemes.fixed import FixedFrequency
from repro.schemes.replay import (
    ReplayResult,
    lindley_finish_times,
    meets_bound,
    replay,
    service_times,
)
from repro.sim.trace import Trace


def find_static_frequency(
    trace: Trace,
    bound_s: float,
    context: SchemeContext,
) -> float:
    """Lowest grid frequency whose static replay meets the bound.

    Returns the maximum frequency when even it cannot meet the bound
    (the shaded high-load region of Fig. 9). Each candidate runs only
    the replay's tail: the same service and finish times, no energy.
    """
    check_bound(bound_s)
    for f in context.dvfs.frequencies:
        finish = lindley_finish_times(trace.arrivals,
                                      service_times(trace, f))
        if meets_bound(finish - trace.arrivals, bound_s,
                       context.tail_percentile):
            return f
    return context.dvfs.max_hz


class StaticOracle(FixedFrequency):
    """Fixed-frequency scheme tuned oracularly per trace."""

    def __init__(self) -> None:
        super().__init__(freq_hz=None)
        self._tuned_hz: Optional[float] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return "StaticOracle"

    @property
    def tuned_hz(self) -> Optional[float]:
        """The chosen static frequency (None before tuning)."""
        return self._tuned_hz

    def tune(self, trace: Trace, context: SchemeContext) -> float:
        """Pick the lowest feasible static frequency for ``trace``."""
        self._tuned_hz = find_static_frequency(
            trace, context.latency_bound_s, context)
        self._freq_hz = self._tuned_hz
        return self._tuned_hz

    def initial_frequency(self) -> float:
        if self._tuned_hz is None:
            raise RuntimeError("StaticOracle must be tuned before running")
        return self._tuned_hz

    def evaluate(self, trace: Trace, context: SchemeContext) -> ReplayResult:
        """Tune on ``trace`` and return its analytic replay."""
        self.tune(trace, context)
        return replay(trace, self._tuned_hz)
