"""AdrenalineOracle (paper Sec. 5.2, idealized version of Adrenaline
[Hsu et al., HPCA 2015]).

Adrenaline's intuition: long requests are the likely tail contributors, so
boost *them* to a higher frequency and run short requests slow. The paper
evaluates an oracular variant that (a) perfectly distinguishes long from
short requests at arrival (real Adrenaline needs application-level hints)
and (b) tunes the long/short threshold and the two frequency settings
offline per application and load, picking the most efficient feasible
combination.

This module reproduces that offline search: sweep threshold quantiles of
the service-demand distribution and all (f_short <= f_boost) pairs on the
DVFS grid, evaluate each by analytic replay, and keep the lowest-energy
setting whose tail meets the bound. Queuing is never modeled explicitly —
exactly the limitation the paper highlights (Sec. 2.2).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.schemes.base import Scheme, SchemeContext, check_bound
from repro.schemes.replay import (
    ReplayResult,
    bound_met_by_count,
    busy_energy,
    failing_count,
    lindley_finish_times,
    meets_bound,
    replay,
    service_times,
)
from repro.sim.core import Core
from repro.sim.request import Request
from repro.sim.trace import Trace

#: Threshold candidates, as quantiles of per-request service demand.
DEFAULT_THRESHOLD_QUANTILES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclasses.dataclass(frozen=True)
class AdrenalineSetting:
    """A tuned operating point."""

    threshold_cycles: float
    f_short_hz: float
    f_boost_hz: float
    energy_per_request_j: float
    tail_latency_s: float


def _classify(trace: Trace, threshold_cycles: float) -> np.ndarray:
    """Boolean mask of boosted (long) requests.

    Classification uses the *hint-based prediction* available at arrival
    (``trace.predicted_cycles``): for hint-friendly apps this equals the
    true demand (the paper's "perfectly distinguish" oracle); for apps
    whose variability is invisible to hints (e.g. specjbb's JIT/GC
    effects) the prediction is noisy and boosting misfires — the paper's
    "not all applications are amenable to hints" (Secs. 2.2 and 3).
    """
    return trace.predicted_cycles >= threshold_cycles


def _frequency_columns(
    trace: Trace, grid: Sequence[float],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per grid frequency, ``trace``'s service column and the matching
    busy-energy column, each element the float ``replay`` computes for
    that request at that frequency."""
    service = [service_times(trace, f) for f in grid]
    energy = [busy_energy(svc, trace.memory_time_s, f)
              for svc, f in zip(service, grid)]
    return service, energy


_Run = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _CandidateReplays:
    """The two-level candidates' replays of one training trace.

    :meth:`feasible_run` returns a candidate's ``(service, finish,
    response)``, the floats :func:`replay` computes, or None when its
    tail misses the bound. This class runs them in numpy;
    :class:`_NativeCandidateReplays` runs the per-request loop in C.
    """

    def __init__(self, trace: Trace, service: List[np.ndarray],
                 bound_s: float, pct: float) -> None:
        self.trace = trace
        self.service = service
        self.bound_s = bound_s
        self.pct = pct
        self.boosted: Optional[np.ndarray] = None  # set by classify()

    def classify(self, threshold_cycles: float) -> None:
        """Split the trace into boosted and short requests for the
        candidates that follow."""
        self.boosted = _classify(self.trace, threshold_cycles)

    def feasible_run(self, bi: int, si: int) -> Optional[_Run]:
        svc = np.where(self.boosted, self.service[bi], self.service[si])
        finish = lindley_finish_times(self.trace.arrivals, svc)
        response = finish - self.trace.arrivals
        if not meets_bound(response, self.bound_s, self.pct):
            return None
        return svc, finish, response


class _NativeCandidateReplays(_CandidateReplays):
    """:class:`_CandidateReplays` with each replay one ``rk_lindley``
    call into buffers reused across candidates; a feasible run returns
    copies. Every address is taken once per tune or per threshold. A
    replay stops at the count of responses over the bound that makes it
    infeasible (:func:`failing_count`), whose buffers are never read."""

    def __init__(self, lib, trace: Trace, service: List[np.ndarray],
                 bound_s: float, pct: float) -> None:
        super().__init__(trace, service, bound_s, pct)
        self._replay = lib.rk_lindley
        self._arrivals = np.ascontiguousarray(trace.arrivals,
                                              dtype=np.float64)
        self._arrivals_at = self._arrivals.ctypes.data
        self._service_at = [col.ctypes.data for col in service]
        self._out = np.empty((3, len(trace)))
        self._out_at = [row.ctypes.data for row in self._out]
        self._boosted_at = 0
        self._stop = failing_count(len(trace), pct)

    def classify(self, threshold_cycles: float) -> None:
        super().classify(threshold_cycles)
        self._boosted_at = self.boosted.ctypes.data

    def feasible_run(self, bi: int, si: int) -> Optional[_Run]:
        n = self._out.shape[1]
        above = self._replay(
            n, self._arrivals_at, self._service_at[bi],
            self._service_at[si], self._boosted_at, self.bound_s,
            self._stop, *self._out_at)
        met = bound_met_by_count(n, above, self.pct)
        if met is None:
            met = bool(np.percentile(self._out[2], self.pct) <= self.bound_s)
        if not met:
            return None
        svc, finish, response = self._out.copy()
        return svc, finish, response


def _candidate_replays(traces: Sequence[Trace],
                       service: List[List[np.ndarray]],
                       bounds_s: Sequence[float],
                       pct: float) -> List[_CandidateReplays]:
    """Native replays when the library loads, else the numpy ones (the
    service columns are float64, the C loop's type, because every
    ``Trace`` column is)."""
    # Imported on first use: the ctypes mirror costs start-up time in
    # processes that never run an oracle.
    from repro.core._native.kernel import oracle_library

    lib = oracle_library()
    return [_NativeCandidateReplays(lib, trace, cols, bound, pct)
            if lib is not None
            else _CandidateReplays(trace, cols, bound, pct)
            for trace, cols, bound in zip(traces, service, bounds_s)]


def tune_adrenaline(
    traces: Sequence[Trace],
    context: SchemeContext,
    threshold_quantiles: Sequence[float] = DEFAULT_THRESHOLD_QUANTILES,
    bounds_s: Optional[Sequence[float]] = None,
) -> AdrenalineSetting:
    """Offline search for the best feasible (threshold, f_short, f_boost).

    Feasible = replay tail within the bound on *every* training trace
    (the paper's settings come from an offline training phase and must
    hold across runs); best = lowest mean energy per request, busy
    energy plus the sleep energy of idle time. Falls back to
    everything-at-max when nothing is feasible (high load).

    A candidate's replay is assembled from per-frequency columns built
    once per tune (its per-request loop in the native library when it
    loads), its energy is read only once its tail meets every bound,
    and the tail percentile is taken only for the setting kept; the
    floats compared are those of a full :func:`replay`.

    Args:
        traces: training traces.
        context: carries the default latency bound.
        threshold_quantiles: candidate long/short split points.
        bounds_s: optional per-training-trace bounds (when each trace's
            bound is defined by the same methodology on its own seed).
    """
    if not traces:
        raise ValueError("need at least one training trace")
    if bounds_s is None:
        bounds_s = [context.latency_bound_s] * len(traces)
    if len(bounds_s) != len(traces):
        raise ValueError("bounds_s must match traces")
    for bound in bounds_s:
        check_bound(bound)
    pct = context.tail_percentile
    grid = context.dvfs.frequencies
    columns = [_frequency_columns(trace, grid) for trace in traces]
    replays = _candidate_replays(
        traces, [service for service, _ in columns], bounds_s, pct)
    # (energy, threshold, f_short, f_boost, results) of the best so far.
    best: Optional[Tuple[float, float, float, float,
                         List[ReplayResult]]] = None

    for q in threshold_quantiles:
        threshold = float(np.quantile(traces[0].predicted_cycles, q))
        for candidates in replays:
            candidates.classify(threshold)
        for bi, f_boost in enumerate(grid):
            for si, f_short in enumerate(grid[: bi + 1]):
                runs = []
                for candidates in replays:
                    run = candidates.feasible_run(bi, si)
                    if run is None:
                        break
                    runs.append(run)
                if len(runs) < len(replays):
                    continue
                results = [
                    ReplayResult(
                        response_times=response,
                        service_times=svc,
                        busy_energy_j=np.where(boosted, busy[bi], busy[si]),
                        duration_s=float(finish[-1]),
                        busy_time_s=float(svc.sum()),
                        freqs_hz=np.where(boosted, f_boost, f_short),
                    )
                    for (svc, finish, response), boosted, (_, busy)
                    in zip(runs, [c.boosted for c in replays], columns)
                ]
                energy = float(np.mean(
                    [r.energy_per_request_j for r in results]))
                if best is None or energy < best[0]:
                    best = (energy, threshold, f_short, f_boost, results)
                # Assumes a larger f_short only costs more at this
                # f_boost. Not so at the bottom of the grid: energy per
                # cycle is 1.072 nJ at 0.8 GHz but 1.050 nJ at 1.0 GHz,
                # so a cheaper feasible f_short can go unseen here.
                break

    if best is None:
        f_max = context.dvfs.max_hz
        result = replay(traces[0], f_max)
        return AdrenalineSetting(
            threshold_cycles=0.0,
            f_short_hz=f_max,
            f_boost_hz=f_max,
            energy_per_request_j=result.energy_per_request_j,
            tail_latency_s=result.tail_latency(pct),
        )
    energy, threshold, f_short, f_boost, results = best
    return AdrenalineSetting(
        threshold_cycles=threshold,
        f_short_hz=float(f_short),
        f_boost_hz=float(f_boost),
        energy_per_request_j=energy,
        tail_latency_s=float(np.max([r.tail_latency(pct) for r in results])),
    )


class AdrenalineOracle(Scheme):
    """Per-request two-level DVFS with oracular request classification."""

    name = "AdrenalineOracle"

    def __init__(self) -> None:
        self.setting: Optional[AdrenalineSetting] = None

    def tune(self, traces: Sequence[Trace], context: SchemeContext,
             threshold_quantiles: Sequence[float] = DEFAULT_THRESHOLD_QUANTILES,
             bounds_s: Optional[Sequence[float]] = None,
             ) -> AdrenalineSetting:
        """Run the offline search on training ``traces``."""
        self.setting = tune_adrenaline(
            traces, context, threshold_quantiles, bounds_s)
        return self.setting

    def evaluate(self, trace: Trace, context: SchemeContext,
                 training_traces: Optional[Sequence[Trace]] = None,
                 training_bounds_s: Optional[Sequence[float]] = None,
                 ) -> ReplayResult:
        """Tune (on ``training_traces``, default: the eval trace itself,
        which is the most oracular variant) and replay ``trace``."""
        setting = self.tune(training_traces or [trace], context,
                            bounds_s=training_bounds_s)
        boosted = _classify(trace, setting.threshold_cycles)
        freqs = np.where(boosted, setting.f_boost_hz, setting.f_short_hz)
        return replay(trace, freqs)

    # Event-driven operation (used when mixed with DVFS-lag simulation):
    # set frequency per request at service start, oracularly.
    def initial_frequency(self) -> float:
        if self.setting is None:
            raise RuntimeError("AdrenalineOracle must be tuned before running")
        return self.setting.f_short_hz

    def _is_long(self, request: Request) -> bool:
        """Hint-predicted demand at/above the tuned long/short split."""
        assert self.setting is not None
        predicted = (request.predicted_cycles
                     if request.predicted_cycles is not None
                     else request.compute_cycles)
        return predicted >= self.setting.threshold_cycles

    def _retarget(self, core: Core) -> None:
        """Run at the boost frequency iff any pending request is long.

        Walks the in-service request and the queue directly (no list
        build — this runs on every arrival and completion) and stops at
        the first long request: with only two levels, one boosted
        request decides the outcome.

        Mid-run meter reads are not needed here, but any subclass that
        adds energy feedback must honour the flush-hook contract:
        ``core.flush_accounting()`` before touching ``core.meter``.
        """
        setting = self.setting
        if core.current is not None and self._is_long(core.current):
            core.request_frequency(setting.f_boost_hz)
            return
        for request in core.queue:
            if self._is_long(request):
                core.request_frequency(setting.f_boost_hz)
                return
        core.request_frequency(setting.f_short_hz)

    def on_arrival(self, core: Core, request: Request) -> None:
        self._retarget(core)

    def on_completion(self, core: Core, request: Request) -> None:
        self._retarget(core)
