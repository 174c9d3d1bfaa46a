"""Rolling-window estimators over timestamped samples.

Used for:

* instantaneous QPS over 5 ms windows (Fig. 2a),
* tail latency over rolling 200 ms / 1 s windows (Figs. 1b and 10, and
  Rubik's PI feedback controller),
* power over rolling windows (Fig. 10).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import percentile
from repro.config import check_finite


class RollingTailEstimator:
    """Online tail-latency estimator over a sliding time window.

    Samples are (timestamp, latency) pairs appended in nondecreasing
    timestamp order; :meth:`tail` reports the percentile over samples whose
    timestamp lies within ``window_s`` of the most recent observation time.
    """

    def __init__(self, window_s: float, pct: float = 95.0) -> None:
        check_finite("window_s", window_s, positive=True)
        if not 0.0 < pct <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        self.window_s = window_s
        self.pct = pct
        self._samples: Deque[Tuple[float, float]] = deque()
        self._last_time = float("-inf")

    def observe(self, timestamp: float, latency: float) -> None:
        """Record a completed request's latency at ``timestamp``."""
        if timestamp < self._last_time - 1e-12:
            raise ValueError("observations must arrive in time order")
        self._last_time = max(self._last_time, timestamp)
        self._samples.append((timestamp, latency))
        self._evict(timestamp)

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def tail(self, now: Optional[float] = None) -> Optional[float]:
        """Tail latency over the current window, or None if empty."""
        if now is not None:
            self._evict(now)
        if not self._samples:
            return None
        return percentile([lat for _, lat in self._samples], self.pct)

    def count(self) -> int:
        return len(self._samples)


def windowed_series(
    timestamps: Sequence[float],
    values: Sequence[float],
    window_s: float,
    step_s: Optional[float] = None,
    reducer=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce (timestamp, value) samples over consecutive sliding windows.

    Returns (window-end times, reduced values). Windows slide by ``step_s``
    (default: the window size, i.e. tumbling windows). Empty windows are
    skipped. ``reducer`` defaults to the 95th percentile, the paper's tail
    metric. A window ending at ``end`` holds the samples with
    ``end - window_s <= t <= end``, found by binary search on the sorted
    timestamps.
    """
    ts = np.asarray(timestamps, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.shape != vs.shape:
        raise ValueError("timestamps and values must have equal length")
    if ts.size == 0:
        return np.array([]), np.array([])
    if window_s <= 0:
        raise ValueError("window must be positive")
    step = step_s if step_s is not None else window_s
    if step <= 0:
        raise ValueError("step must be positive")
    if reducer is None:
        reducer = lambda chunk: percentile(chunk, 95.0)  # noqa: E731

    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    vs = vs[order]

    out_t: List[float] = []
    out_v: List[float] = []
    end = ts[0] + window_s
    last = ts[-1]
    while end <= last + window_s:
        lo = ts.searchsorted(end - window_s)
        hi = ts.searchsorted(end, side="right")
        if hi > lo:
            out_t.append(end)
            out_v.append(float(reducer(vs[lo:hi])))
        end += step
    return np.asarray(out_t), np.asarray(out_v)


def instantaneous_qps(
    arrival_times: Sequence[float],
    window_s: float = 5e-3,
    anchor: str = "time",
) -> np.ndarray:
    """Instantaneous load in queries/second over rolling windows (Fig. 2a).

    Args:
        arrival_times: request arrival timestamps.
        window_s: trailing window length (paper: 5 ms).
        anchor: ``"time"`` samples the trailing-window rate on a regular
            time grid (step = window/5), *including empty windows* — the
            CDF view of Fig. 2a where load drops to zero. ``"arrivals"``
            evaluates the rate as seen by each arriving request — the
            per-request covariate used by Table 1's correlations.
    """
    ts = np.sort(np.asarray(arrival_times, dtype=float))
    if ts.size == 0:
        return np.array([])
    if window_s <= 0:
        raise ValueError("window must be positive")
    if anchor == "arrivals":
        counts = np.empty(ts.size)
        lo = 0
        for i, t in enumerate(ts):
            while ts[lo] < t - window_s:
                lo += 1
            counts[i] = i - lo + 1
        return counts / window_s
    if anchor != "time":
        raise ValueError("anchor must be 'time' or 'arrivals'")
    step = window_s / 5.0
    grid = np.arange(ts[0] + window_s, ts[-1] + step, step)
    lo_idx = np.searchsorted(ts, grid - window_s, side="left")
    hi_idx = np.searchsorted(ts, grid, side="right")
    return (hi_idx - lo_idx) / window_s
