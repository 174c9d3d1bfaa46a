"""Core execution model: serves LC requests, optionally runs batch work.

The core is a preemptive-resume server with a FIFO queue of latency-
critical requests. Execution honours the two-component demand model
(compute cycles at the current frequency + frequency-invariant memory
time); a DVFS change mid-request advances the request's progress at the
old frequency and reschedules its completion at the new one.

Accounting is batched: closing a segment appends one tuple to an in-core
buffer instead of calling :meth:`EnergyMeter.record`, and the buffer is
integrated vectorized at :meth:`Core.flush_accounting` /
:meth:`Core.finalize` — bitwise-identical totals (see
``EnergyMeter.record_segments``), none of the per-segment cost on the hot
path. DVFS transitions are applied lazily by :class:`DvfsDomain` (no heap
event per change); the core consumes the applied-transition boundaries to
split its segments at the exact apply times, and computes each request's
*final* completion time by walking the domain's transition plan instead
of rescheduling once per frequency change.

Anything reading ``core.meter`` or ``core.segment_log`` mid-run must call
:meth:`Core.flush_accounting` first — that is the flush-hook contract for
schemes that observe live energy (e.g. Pegasus's power telemetry).

When a :class:`BackgroundTask` (a colocated batch app) is attached, the
core runs it whenever the LC queue is empty — the RubikColoc time-sharing
policy (Fig. 13c): LC work preempts batch work instantly, and the first LC
request after a batch interval can be charged extra compute cycles by an
interference model (cold private caches, branch predictor, TLBs).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Protocol

import numpy as np

from repro.config import DvfsConfig
from repro.power.energy import (
    BATCH_CODE as _BATCH_CODE,
    BUSY_CODE as _BUSY_CODE,
    IDLE_CODE as _IDLE_CODE,
    STATE_CODES,
    EnergyMeter,
)
from repro.power.model import CorePowerModel, CoreState
from repro.sim.dvfs import DvfsDomain
from repro.sim.engine import Simulator
from repro.sim.request import CompletionColumns, Request

#: Completion events fire after frequency changes at the same timestamp.
COMPLETION_PRIORITY = 0

#: Flush the segment buffer once it reaches this many entries, bounding
#: memory on very long runs (flushing mid-run is bitwise-neutral).
_FLUSH_THRESHOLD = 1 << 16


class BackgroundTask(Protocol):
    """A batch application that soaks up idle core time (RubikColoc)."""

    def preferred_frequency(self, dvfs: DvfsConfig) -> float:
        """Frequency the batch app wants to run at (e.g. best TPW)."""

    def run(self, duration_s: float, freq_hz: float) -> None:
        """Account ``duration_s`` of execution at ``freq_hz``."""

    def mem_stall_frac(self, freq_hz: float) -> float:
        """Fraction of wall-clock time stalled on memory at ``freq_hz``."""


class CoreListener(Protocol):
    """Scheme/controller hooks, invoked after the core updates its state."""

    def on_arrival(self, core: "Core", request: Request) -> None: ...

    def on_completion(self, core: "Core", request: Request) -> None: ...


class Core:
    """One simulated core with per-core DVFS and energy accounting."""

    def __init__(
        self,
        sim: Simulator,
        dvfs_config: DvfsConfig,
        power_model: CorePowerModel,
        initial_hz: Optional[float] = None,
        background: Optional[BackgroundTask] = None,
        interference_cycles: Optional[Callable[[float, Request], float]] = None,
        log_segments: bool = False,
        record_freq_history: bool = False,
    ) -> None:
        """Args:
            sim: owning simulator.
            dvfs_config: frequency grid and transition latency.
            power_model: per-core power model for energy accounting.
            initial_hz: starting frequency (defaults to nominal).
            background: optional colocated batch task.
            interference_cycles: optional callable
                ``(batch_interval_s, request) -> extra cycles`` charged to
                the first LC request after the core ran batch work.
            log_segments: record (start, end, power_w) per accounting
                segment, for power-over-time plots (Fig. 10).
            record_freq_history: keep the DVFS domain's (time, frequency)
                transition log (Figs. 1b and 10). Off by default: sweep
                drivers never read it and it grows one tuple per
                transition.
        """
        self.sim = sim
        self.dvfs = DvfsDomain(sim, dvfs_config, initial_hz,
                               on_retarget=self._on_retarget,
                               record_history=record_freq_history)
        self.meter = EnergyMeter(power_model)
        self.queue: Deque[Request] = deque()
        self.current: Optional[Request] = None
        #: Arrival times of current + queued requests, oldest first —
        #: maintained incrementally so the per-event decision kernels read
        #: them without walking Request objects.
        self._pending_arrivals: Deque[float] = deque()
        #: Monotone count of queue deltas (admissions + completions),
        #: bumped before the listener hooks fire. Controllers keeping
        #: incremental per-queue state (the Rubik decision kernel) use it
        #: to verify they saw exactly one delta since their last
        #: decision; a skip (a queue change they did not decide on)
        #: safely degrades them to a full recompute.
        self.queue_epoch = 0
        self.background = background
        self._interference_cycles = interference_cycles
        self.listeners: List[CoreListener] = []
        #: Completed requests (see :attr:`completed`); None until first
        #: read after a native run, which leaves only the columns.
        self._completed: Optional[List[Request]] = []
        self._columns: Optional[CompletionColumns] = None
        self.segment_log: Optional[List[tuple]] = [] if log_segments else None

        #: Raw heap entry of the pending completion (see
        #: Simulator.schedule_entry); index 3 is the callback slot.
        self._completion_entry: Optional[list] = None
        #: Closed-but-unintegrated segments:
        #: (start, end, state_code, freq, mem_frac) tuples.
        self._segment_buffer: List[tuple] = []
        #: Export hook for segments accounted outside this core (the
        #: native span loop folds them into its own meter sums and
        #: segment-log rows); called by :meth:`flush_accounting`
        #: *before* the local buffer, since external segments are
        #: chronologically older.
        self._external_flush: Optional[Callable[[], None]] = None
        self._segment_start = sim.now
        self._seg_state = self._idle_state()
        self._seg_code = STATE_CODES[self._seg_state]
        self._seg_freq = self.dvfs.current_hz
        self._seg_mem_frac = 0.0
        self._batch_interval_start: Optional[float] = (
            sim.now if background is not None else None)
        if self.background is not None:
            self.dvfs.request(self.background.preferred_frequency(dvfs_config))
            self._seg_freq = self.dvfs.current_hz
            self._seg_mem_frac = self.background.mem_stall_frac(self._seg_freq)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        return self.dvfs.current_hz

    @property
    def queue_length(self) -> int:
        """Number of LC requests in the system (queued + in service)."""
        return len(self.queue) + (1 if self.current is not None else 0)

    @property
    def completed(self) -> List[Request]:
        """Completed requests, in completion order. A native run leaves
        only :meth:`completion_columns`; the records are built from
        them on first read."""
        reqs = self._completed
        if reqs is None:
            reqs = self._completed = self._columns.requests()
        return reqs

    def completion_columns(self) -> CompletionColumns:
        """The completed requests as columns, for metrics that need no
        :class:`Request` objects (built once from the records after a
        Python-loop run)."""
        cols = self._columns
        reqs = self._completed
        if cols is None or (reqs is not None and len(reqs) != len(cols)):
            cols = self._columns = CompletionColumns.from_requests(
                self.completed)
        return cols

    def add_listener(self, listener: CoreListener) -> None:
        self.listeners.append(listener)

    def current_request_elapsed(self) -> tuple:
        """(elapsed cycles, elapsed memory seconds) of the in-service
        request as of *now*, including the currently open segment.

        This is what Rubik reads from performance counters (``omega`` in
        the paper's Fig. 4) when it conditions the running request's
        completion distribution.
        """
        if self.current is None:
            return 0.0, 0.0
        dvfs = self.dvfs
        if dvfs._unaccounted or (dvfs._pending_target is not None
                                 and self.sim.now >= dvfs._pending_apply_at):
            self._sync_accounting()
        request = self.current
        progress = request.progress
        if self._seg_state is CoreState.BUSY:
            total = (request.compute_cycles / self._seg_freq
                     + request.memory_time_s)
            if total > 0:
                extra = (self.sim.now - self._segment_start) / total
                progress = min(1.0, progress + extra)
        return (progress * request.compute_cycles,
                progress * request.memory_time_s)

    def request_frequency(self, freq_hz: float) -> None:
        """Ask the DVFS domain for ``freq_hz`` (must be on the grid)."""
        self.dvfs.request(freq_hz)

    def enqueue(self, request: Request) -> None:
        """Admit a new LC request (called by the arrival process)."""
        self._pending_arrivals.append(request.arrival_time)
        self.queue_epoch += 1
        if self.current is None:
            self._begin_service(request)
        else:
            self.queue.append(request)
        for listener in self.listeners:
            listener.on_arrival(self, request)

    def flush_accounting(self) -> None:
        """Integrate buffered segments into :attr:`meter` (and
        :attr:`segment_log`).

        The flush-hook contract: anything observing the meter or segment
        log *mid-run* must call this first — the hot path only appends to
        the buffer. Flushing is bitwise-neutral: integration folds into
        the meter's accumulators in strict segment order regardless of
        how many flushes partition the run.
        """
        if self._external_flush is not None:
            self._external_flush()
        buf = self._segment_buffer
        if not buf:
            return
        self._segment_buffer = []
        arr = np.array(buf, dtype=float)
        starts = arr[:, 0]
        ends = arr[:, 1]
        durations = ends - starts
        energies = self.meter.record_segments(
            durations, arr[:, 2], arr[:, 3], arr[:, 4])
        if self.segment_log is not None:
            powers = energies / durations
            self.segment_log.extend(
                zip(starts.tolist(), ends.tolist(), powers.tolist()))

    def finalize(self, settle_dvfs: bool = False) -> None:
        """Close the open accounting segment at the current sim time and
        integrate all buffered segments.

        Call once after the run completes so energy/residency totals cover
        the full simulated interval.

        Args:
            settle_dvfs: also walk the clock through any still-in-flight
                DVFS transition and apply it (see :meth:`DvfsDomain.settle`)
                before closing — what the trailing FREQ_CHANGE events did
                for fully-drained runs. Leave False for runs stopped
                mid-stream (those never fired trailing events).
        """
        if settle_dvfs:
            self.dvfs.settle()
        self._close_segment()
        self._open_segment()
        self.flush_accounting()

    # ------------------------------------------------------------------
    # Service machinery
    # ------------------------------------------------------------------
    def _idle_state(self) -> CoreState:
        return CoreState.BATCH if self.background is not None else CoreState.IDLE

    def _begin_service(self, request: Request) -> None:
        self._close_segment()
        if self._batch_interval_start is not None:
            interval = self.sim.now - self._batch_interval_start
            self._batch_interval_start = None
            if interval > 0 and self._interference_cycles is not None:
                extra = self._interference_cycles(interval, request)
                if extra > 0:
                    request.compute_cycles += extra
        self.current = request
        request.start_time = self.sim.now
        self._schedule_completion()
        self._open_segment()

    def _schedule_completion(self) -> None:
        """Schedule the in-service request's completion at its *final*
        time, walking the DVFS domain's transition plan.

        Replays exactly what the event-driven implementation converged to
        through per-transition reschedules: progress accrues at each
        planned frequency from the last accounted point
        (``_segment_start``), with the same ``advance``/``remaining``
        arithmetic, so the scheduled time is bit-identical. A transition
        wins ties against the provisional finish time (FREQ_CHANGE fired
        before completions at the same timestamp). Called from service
        start and from every retarget (the only points where the plan can
        change); callers guarantee the domain is synced, so the raw
        pending/latched state *is* the future plan (at most two entries —
        see :meth:`DvfsDomain.planned_transitions`, of which this is an
        allocation-free inlining).
        """
        request = self.current
        assert request is not None
        if self._completion_entry is not None:
            self._completion_entry[3] = None  # O(1) lazy cancel
        dvfs = self.dvfs
        progress = request.progress
        prev = self._segment_start
        total = (request.compute_cycles / dvfs._current_hz
                 + request.memory_time_s)
        finish = prev + (1.0 - progress) * total
        pending = dvfs._pending_target
        if pending is not None:
            apply_at = dvfs._pending_apply_at
            if finish >= apply_at:
                progress = min(1.0, progress + (apply_at - prev) / total)
                total = (request.compute_cycles / pending
                         + request.memory_time_s)
                finish = apply_at + (1.0 - progress) * total
                latched = dvfs._latched_target
                if latched is not None and latched != pending:
                    chained_at = (apply_at
                                  + dvfs.config.transition_latency_s)
                    if finish >= chained_at:
                        progress = min(1.0, progress
                                       + (chained_at - apply_at) / total)
                        total = (request.compute_cycles / latched
                                 + request.memory_time_s)
                        finish = chained_at + (1.0 - progress) * total
        self._completion_entry = self.sim.schedule_entry(
            finish, self._on_completion, priority=COMPLETION_PRIORITY)

    def _on_completion(self) -> None:
        request = self.current
        assert request is not None
        self._close_segment()
        request.progress = 1.0
        request.finish_time = self.sim.now
        self.completed.append(request)
        self._pending_arrivals.popleft()  # FIFO: the oldest just finished
        self.queue_epoch += 1
        self.current = None
        self._completion_entry = None
        if self.queue:
            # Queued handoff goes through the same path as a fresh
            # arrival so interference/batch-interval logic can never be
            # bypassed (the interval is None here: the queue was
            # non-empty, so no batch ran in between).
            self._begin_service(self.queue.popleft())
        else:
            if self.background is not None:
                self._batch_interval_start = self.sim.now
            self._open_segment()
        for listener in self.listeners:
            listener.on_completion(self, request)
        # The batch app resumes at its own frequency once the LC queue is
        # empty; schemes may have just requested something else, so this
        # runs after the listener hooks.
        if self.current is None and self.background is not None:
            self.dvfs.request(
                self.background.preferred_frequency(self.dvfs.config))

    def _on_retarget(self) -> None:
        """DVFS-plan change hook: catch up segment accounting (an
        immediate zero-latency apply creates a boundary at *now*) and
        re-derive the in-flight completion time from the new plan."""
        dvfs = self.dvfs
        if dvfs._unaccounted or (dvfs._pending_target is not None
                                 and self.sim.now >= dvfs._pending_apply_at):
            self._sync_accounting()
        if self.current is not None:
            self._schedule_completion()

    # ------------------------------------------------------------------
    # Accounting segments
    # ------------------------------------------------------------------
    def _sync_accounting(self) -> None:
        """Split the open segment at DVFS transitions that have applied
        since it opened (lazily, at their exact apply times).

        Hot-path note: callers guard this call with the same two
        attribute checks inline, so the (overwhelmingly common)
        nothing-to-do case costs no function call.
        """
        dvfs = self.dvfs
        if (dvfs._pending_target is not None
                and self.sim.now >= dvfs._pending_apply_at):
            dvfs._sync()
        if dvfs._unaccounted:
            for apply_at, new_freq in dvfs.take_unaccounted():
                self._consume_boundary(apply_at, new_freq)

    def _consume_boundary(self, at_time: float, new_freq: float) -> None:
        """Close the open segment at a transition's apply time and reopen
        it at the new frequency (occupancy is unchanged by a transition,
        so only frequency and the mem-stall fraction change)."""
        duration = at_time - self._segment_start
        if duration > 0:
            self._segment_buffer.append(
                (self._segment_start, at_time, self._seg_code,
                 self._seg_freq, self._seg_mem_frac))
            if self._seg_state is CoreState.BUSY and self.current is not None:
                self.current.advance(duration, self._seg_freq)
            elif self._seg_state is CoreState.BATCH and self.background is not None:
                self.background.run(duration, self._seg_freq)
        self._segment_start = at_time
        self._seg_freq = new_freq
        if self._seg_state is CoreState.BUSY:
            total = (self.current.compute_cycles / new_freq
                     + self.current.memory_time_s)
            self._seg_mem_frac = (
                self.current.memory_time_s / total if total > 0 else 0.0)
        elif self._seg_state is CoreState.BATCH:
            self._seg_mem_frac = self.background.mem_stall_frac(new_freq)
        else:
            self._seg_mem_frac = 0.0

    def _close_segment(self) -> None:
        now = self.sim.now
        dvfs = self.dvfs
        if dvfs._unaccounted or (dvfs._pending_target is not None
                                 and now >= dvfs._pending_apply_at):
            self._sync_accounting()
        duration = now - self._segment_start
        if duration > 0:
            self._segment_buffer.append(
                (self._segment_start, now,
                 self._seg_code, self._seg_freq,
                 self._seg_mem_frac))
            if self._seg_state is CoreState.BUSY and self.current is not None:
                self.current.advance(duration, self._seg_freq)
            elif self._seg_state is CoreState.BATCH and self.background is not None:
                self.background.run(duration, self._seg_freq)
            if len(self._segment_buffer) >= _FLUSH_THRESHOLD:
                self.flush_accounting()
        self._segment_start = self.sim.now

    def _open_segment(self) -> None:
        # Callers sync accounting (via _close_segment) at the same
        # timestamp first, so the domain's raw frequency is current.
        self._segment_start = self.sim.now
        freq = self.dvfs._current_hz
        if self.current is not None:
            self._seg_state = CoreState.BUSY
            self._seg_code = _BUSY_CODE
            total = (self.current.compute_cycles / freq
                     + self.current.memory_time_s)
            self._seg_mem_frac = (
                self.current.memory_time_s / total if total > 0 else 0.0)
        elif self.background is not None:
            self._seg_state = CoreState.BATCH
            self._seg_code = _BATCH_CODE
            self._seg_mem_frac = self.background.mem_stall_frac(freq)
        else:
            self._seg_state = CoreState.IDLE
            self._seg_code = _IDLE_CODE
            self._seg_mem_frac = 0.0
        self._seg_freq = freq
