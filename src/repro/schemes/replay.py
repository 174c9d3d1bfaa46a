"""Analytic trace replay: queueing recurrences without event simulation.

The oracles (StaticOracle, AdrenalineOracle, DynamicOracle) are defined on
a captured trace (paper Sec. 5.3), so they can be evaluated with the
Lindley-style recurrence for a FIFO single server:

    start_i  = max(arrival_i, finish_{i-1})
    finish_i = start_i + C_i / f_i + M_i

where ``f_i`` is the frequency assigned to request ``i``. This is exact
when frequency only changes at request boundaries (true for all three
oracles) and orders of magnitude faster than event simulation, which makes
the oracles' offline tuning sweeps affordable.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import numpy as np

from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.trace import Trace


@dataclasses.dataclass
class ReplayResult:
    """Latency and energy of an analytic replay."""

    response_times: np.ndarray
    service_times: np.ndarray
    busy_energy_j: np.ndarray  # per request
    duration_s: float
    busy_time_s: float
    freqs_hz: np.ndarray

    def tail_latency(self, pct: float = 95.0) -> float:
        return float(np.percentile(self.response_times, pct))

    def violation_rate(self, bound_s: float) -> float:
        return float(np.mean(self.response_times > bound_s))

    @property
    def total_energy_j(self) -> float:
        """Total core energy including idle sleep between requests."""
        idle = max(0.0, self.duration_s - self.busy_time_s)
        return float(self.busy_energy_j.sum()
                     + idle * DEFAULT_CORE_POWER.sleep_power_w)

    @property
    def energy_per_request_j(self) -> float:
        return self.total_energy_j / len(self.response_times)

    @property
    def mean_core_power_w(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.total_energy_j / self.duration_s


def lindley_finish_times(arrivals: np.ndarray,
                         service: np.ndarray) -> np.ndarray:
    """Vectorized FIFO finish times.

    ``finish_i = max_{j<=i}(arrival_j + sum_{k=j..i} service_k)``, computed
    as ``cumsum(service) + running-max(arrival - cumsum(service) shifted)``
    — O(n) with no Python loop, which keeps the oracles' tuning sweeps
    (hundreds of replays) cheap.
    """
    cs = np.cumsum(service)
    offsets = arrivals - (cs - service)
    return np.maximum.accumulate(offsets) + cs


def service_times(trace: Trace,
                  freqs_hz: Union[float, np.ndarray]) -> np.ndarray:
    """Per-request service time ``C_i / f_i + M_i`` at ``freqs_hz`` (a
    scalar, or one frequency per request)."""
    return trace.compute_cycles / freqs_hz + trace.memory_time_s


def bound_met_by_count(n: int, above: int, pct: float) -> Optional[bool]:
    """Whether the ``pct`` percentile of ``n`` responses, ``above`` of
    them over a finite bound, is within that bound; None when only the
    percentile itself can tell.

    NumPy's linear percentile lies between the sorted responses at
    ``floor(h)`` and ``floor(h) + 1``, ``h = (n - 1) * pct / 100``. The
    count places the bound among the sorted responses, so it decides
    the comparison unless the bound falls between those two. One index
    of margin on each side covers a different rounding of ``h`` inside
    NumPy.
    """
    k = int((n - 1) * pct / 100.0)
    if above <= n - 1 - min(k + 2, n - 1):
        return True  # sorted response min(floor(h) + 2, n - 1) in bound
    if above >= failing_count(n, pct):
        return False  # sorted response max(floor(h) - 1, 0) above it
    return None


def failing_count(n: int, pct: float) -> int:
    """The fewest of ``n`` responses over a bound for which
    :func:`bound_met_by_count` answers False: from then on the
    sorted response ``max(floor(h) - 1, 0)`` lies above the bound, so a
    replay can stop counting there."""
    return n - max(int((n - 1) * pct / 100.0) - 1, 0)


def meets_bound(response: np.ndarray, bound_s: float, pct: float) -> bool:
    """``np.percentile(response, pct) <= bound_s``, decided by a count
    where it can be (:func:`bound_met_by_count`).

    Only the band the count cannot decide calls ``np.percentile``, so
    the answer is always the percentile's own. Exact for a finite bound:
    ``response > nan`` counts nothing, which is why the oracles reject
    non-finite bounds up front.
    """
    met = bound_met_by_count(
        response.size, int(np.count_nonzero(response > bound_s)), pct)
    if met is None:
        met = bool(np.percentile(response, pct) <= bound_s)
    return met


def busy_energy(service: np.ndarray, memory_time_s: np.ndarray,
                freq_hz: float) -> np.ndarray:
    """Per-request busy energy of ``service`` run at ``freq_hz``.

    ``memory_time_s`` is the frequency-independent stall part of each
    service time; dynamic activity drops to the power model's stall
    activity there.
    """
    model = DEFAULT_CORE_POWER
    mem_frac = np.where(service > 0, memory_time_s / service, 0.0)
    activity = (1.0 - mem_frac) + model.stall_activity * mem_frac
    v = model.curve.voltage(freq_hz)
    dyn = model.c_eff_farads * v * v * freq_hz * activity
    leak = model.leak_w_per_vk * v ** model.leak_exponent
    return (dyn + leak) * service


def replay(
    trace: Trace,
    freqs_hz: Union[float, Sequence[float]],
) -> ReplayResult:
    """Replay ``trace`` with per-request frequencies ``freqs_hz``.

    Args:
        trace: the captured trace.
        freqs_hz: a scalar (static frequency) or one frequency per request.
    """
    n = len(trace)
    freqs = np.broadcast_to(np.asarray(freqs_hz, dtype=float), (n,))
    ok = np.isfinite(freqs) & (freqs > 0)
    if not ok.all():
        raise ValueError("frequencies must be finite and positive, "
                         f"got {float(freqs[~ok][0])!r}")

    service = service_times(trace, freqs)
    finish = lindley_finish_times(trace.arrivals, service)

    response = finish - trace.arrivals
    energy = np.empty(n)
    for f in np.unique(freqs):
        mask = freqs == f
        energy[mask] = busy_energy(service[mask], trace.memory_time_s[mask],
                                   float(f))

    return ReplayResult(
        response_times=response,
        service_times=service,
        busy_energy_j=energy,
        duration_s=float(finish[-1]),
        busy_time_s=float(service.sum()),
        freqs_hz=np.asarray(freqs, dtype=float).copy(),
    )
