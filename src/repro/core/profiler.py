"""Online demand profiling (paper Sec. 4.2, "Estimating probability
distributions").

The real Rubik runtime derives per-request compute cycles and memory-bound
time from CPI-stack performance counters. In simulation those two demands
are known exactly per request, so the profiler's job reduces to windowed
collection: keep the most recent completions and expose them as 128-bucket
histograms on demand.

A bounded window (rather than all history) is what lets Rubik track
long-term drift in service demands — e.g. when colocation interference
inflates compute cycles, the distributions follow within one window.

Snapshots are **incremental**: each demand stream maintains its window
maximum and per-bucket counts under ring-buffer append/evict, so
:meth:`DemandProfiler.snapshot` costs O(new samples + buckets) instead of
re-bucketing the full window twice per refresh. The maintained state is
bitwise-equivalent to :meth:`Histogram.from_samples` on the window
contents (pinned by a randomized add/evict oracle test): counts are exact
integer arithmetic in float64, the bucket width is recomputed with the
same expression, and the whole window is re-bucketed only when the width
actually changes (a new maximum arrived, or the maximum left the window).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.config import check_size
from repro.core.histogram import DEFAULT_NUM_BUCKETS, Histogram

#: Bucket width of the degenerate all-zero memory-time distribution.
ZERO_MEMORY_WIDTH = 1e-9


class _SlidingHistogram:
    """One demand stream's window, bucketed incrementally.

    Ground truth is the sample ring buffer; ``_counts``/``_width`` mirror
    ``Histogram.from_samples`` on it. Appends and evictions are queued in
    pending lists and folded in vectorized at the next :meth:`sync` —
    per-observation work is a couple of float compares (window-max
    maintenance), and the only O(window) steps are the rare re-buckets
    when the maximum (and therefore the bucket width) changes.
    """

    __slots__ = ("window", "num_buckets", "samples", "max_value",
                 "_max_count", "_width", "_counts", "_added", "_evicted",
                 "_rebin")

    def __init__(self, window: int, num_buckets: int) -> None:
        self.window = window
        self.num_buckets = num_buckets
        self.samples: Deque[float] = deque()
        #: Window maximum (-inf while empty); drives the bucket width
        #: exactly as ``float(arr.max())`` does in ``from_samples``.
        self.max_value = -math.inf
        self._max_count = 0
        self._width = 0.0
        self._counts: Optional[np.ndarray] = None
        self._added: List[float] = []
        self._evicted: List[float] = []
        self._rebin = True

    def __len__(self) -> int:
        return len(self.samples)

    def add(self, value: float) -> None:
        samples = self.samples
        if len(samples) == self.window:
            evicted = samples.popleft()
            self._evicted.append(evicted)
            if evicted == self.max_value:
                self._max_count -= 1
        samples.append(value)
        self._added.append(value)
        if value > self.max_value:
            self.max_value = value
            self._max_count = 1
            self._rebin = True  # width grows: incremental repair invalid
        elif value == self.max_value:
            self._max_count += 1
        if self._max_count == 0:
            # The last copy of the maximum left the window and the new
            # sample is smaller: rescan (at most ~once per window period).
            self._rescan_max()
        if len(self._added) >= self.window:
            # Everything currently in the window arrived since the last
            # sync; a full re-bucket is cheaper than replaying the queues
            # (and bounds their memory when syncs are rare).
            self._added.clear()
            self._evicted.clear()
            self._rebin = True

    def _rescan_max(self) -> None:
        m = -math.inf
        count = 0
        for s in self.samples:
            if s > m:
                m = s
                count = 1
            elif s == m:
                count += 1
        self.max_value = m
        self._max_count = count
        self._rebin = True  # width shrank with the departed maximum

    def sync(self) -> None:
        """Fold pending appends/evictions into the bucket counts."""
        added, evicted = self._added, self._evicted
        if self.max_value <= 0.0:
            # All-zero (or empty) window: no bucketed form exists; the
            # snapshot degenerates to a point mass.
            self._counts = None
            self._width = 0.0
        elif self._rebin or self._counts is None:
            # Same expressions as Histogram.from_samples, so the counts
            # and width stay bitwise-equal to a from-scratch build.
            width = self.max_value / self.num_buckets * (1.0 + 1e-9)
            arr = np.asarray(self.samples, dtype=float)
            idx = np.minimum((arr / width).astype(int), self.num_buckets - 1)
            self._counts = np.bincount(
                idx, minlength=self.num_buckets).astype(float)
            self._width = width
        elif added or evicted:
            # Width unchanged since the last sync: integer count updates
            # (exact in float64) under the same binning arithmetic.
            counts = self._counts
            width = self._width
            top = self.num_buckets - 1
            if added:
                arr = np.asarray(added, dtype=float)
                idx = np.minimum((arr / width).astype(int), top)
                counts += np.bincount(
                    idx, minlength=self.num_buckets).astype(float)
            if evicted:
                arr = np.asarray(evicted, dtype=float)
                idx = np.minimum((arr / width).astype(int), top)
                counts -= np.bincount(
                    idx, minlength=self.num_buckets).astype(float)
        added.clear()
        evicted.clear()
        self._rebin = False

    def histogram(self) -> Optional[Histogram]:
        """Bitwise-equal to ``Histogram.from_samples(list(samples))``,
        or None when the window maximum is non-positive (the degenerate
        case both callers special-case)."""
        self.sync()
        if self._counts is None:
            return None
        # Histogram.__init__ performs the identical clip/sum/normalize
        # from_samples applies to its freshly-bincounted array; the copy
        # keeps the live counts independent of the returned object.
        return Histogram(self._width, self._counts.copy())


class DemandProfiler:
    """Sliding-window collector of per-request (cycles, memory-time) pairs."""

    def __init__(
        self,
        window: int = 2000,
        min_samples: int = 16,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        """Args:
            window: number of most-recent completions retained.
            min_samples: completions required before snapshots are offered
                (the controller stays at a safe frequency until then).
            num_buckets: histogram resolution (paper: 128).

        Each is a whole number >= 1 (else a ``ValueError`` names it),
        and ``min_samples`` cannot exceed ``window``.
        """
        window = check_size("window", window)
        min_samples = check_size("min_samples", min_samples)
        num_buckets = check_size("num_buckets", num_buckets)
        if min_samples > window:
            raise ValueError("min_samples cannot exceed the window")
        self.window = window
        self.min_samples = min_samples
        self.num_buckets = num_buckets
        self._cycles = _SlidingHistogram(window, num_buckets)
        self._memory = _SlidingHistogram(window, num_buckets)
        self.total_observed = 0

    def observe(self, compute_cycles: float, memory_time_s: float) -> None:
        """Record one completed request's measured demands."""
        if compute_cycles < 0 or memory_time_s < 0:
            raise ValueError("demands must be non-negative")
        self._cycles.add(compute_cycles)
        self._memory.add(memory_time_s)
        self.total_observed += 1

    @property
    def ready(self) -> bool:
        """True once enough samples exist to build distributions."""
        return len(self._cycles) >= self.min_samples

    def snapshot(self) -> Optional[Tuple[Histogram, Histogram]]:
        """Current (compute-cycles, memory-time) histograms, or None.

        The memory histogram degenerates to a point mass at zero for
        compute-only workloads; the tail tables handle that uniformly.
        """
        if not self.ready:
            return None
        cycles = self._cycles.histogram()
        if cycles is None:
            # from_samples' own top <= 0 path.
            cycles = Histogram.point_mass(0.0, bucket_width=1.0)
        memory = self._memory.histogram()
        if memory is None:
            memory = Histogram.point_mass(0.0, bucket_width=ZERO_MEMORY_WIDTH)
        return cycles, memory
