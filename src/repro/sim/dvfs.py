"""Per-core DVFS domain with realistic transition latencies.

Models the paper's FIVR-style per-core regulator (Table 2): frequency
changes are requested at any time but take ``transition_latency_s`` to take
effect, during which the core keeps running at the old frequency
(conservative). Only one transition can be in flight at a time — a request
issued mid-transition is latched and starts after the in-flight one
completes, which reproduces the back-to-back change behaviour that limits
Rubik on real hardware (Sec. 5.5, 130 us observed latency).

Transitions are applied *lazily*: because the latency is a constant, the
apply time of every in-flight change is known the moment it is requested,
so no simulator event is needed — the domain catches up whenever the clock
is read (``current_hz``) or the state machine is touched. This removes one
heap event per transition (historically ~40% of a Rubik run's events); the
future transition plan is exposed through :meth:`planned_transitions` so
the core can schedule each request's *final* completion time directly
instead of rescheduling it once per frequency change.

End-of-run contract: a drained event loop no longer advances the clock
through in-flight transitions. Drivers that previously relied on trailing
``FREQ_CHANGE`` events (e.g. ``run_trace``) call :meth:`settle`, which
walks the clock to the remaining apply times. Drivers that stop
mid-stream simply don't — matching the old behaviour of never firing
events past the stop point. Those are ``run(until=...)`` and the
colocated server, which closes every core at the server's end: the
coupled HW-T/HW-TPW loop stops there, and each per-core RubikColoc or
StaticColoc run is moved there with :meth:`Simulator.advance_to`, so a
transition still in flight at that time is applied only if it lands by
then. (One granularity caveat: loops that test a stop condition *per
event* now do so at arrival/completion/timer events only, since
transitions no longer appear on the heap — see the coupled colocation
loop's horizon-cap note.)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.config import DvfsConfig
from repro.sim.engine import Simulator

_NO_TRANSITIONS: Tuple[Tuple[float, float], ...] = ()


class DvfsDomain:
    """Frequency state machine for one core."""

    def __init__(
        self,
        sim: Simulator,
        config: DvfsConfig,
        initial_hz: Optional[float] = None,
        on_retarget: Optional[Callable[[], None]] = None,
        record_history: bool = False,
    ) -> None:
        """Args:
            sim: owning simulator.
            config: frequency grid and transition latency.
            initial_hz: starting frequency (defaults to nominal); must be
                on the grid.
            on_retarget: callback fired whenever the future transition
                plan changes (a request was accepted, latched, or applied
                immediately). The core uses it to re-derive the in-flight
                request's completion time and to catch up segment
                accounting. When set, the domain also records applied
                transitions in an *unaccounted* list the core drains to
                split its energy segments at the exact apply times.
            record_history: keep the ``(time, frequency)`` log of applied
                changes. Off by default — only the Fig. 1b/10 frequency-
                trace plots consume it, and one tuple per transition adds
                up over long sweep runs.
        """
        self.sim = sim
        self.config = config
        # Hoisted O(1) grid membership: request() runs twice per
        # simulated event and a method call dominates the set probe.
        self._grid_set = config._freq_set
        start = config.nominal_hz if initial_hz is None else initial_hz
        if start not in config.frequencies:
            raise ValueError(f"initial frequency {start} not on the grid")
        self._current_hz = start
        self.on_retarget = on_retarget
        self._pending_target: Optional[float] = None
        self._pending_apply_at = 0.0
        self._latched_target: Optional[float] = None
        self.transitions = 0
        #: (time, frequency) log of applied changes, for Figs. 1b and 10;
        #: None unless ``record_history`` was requested.
        self.history: Optional[List[Tuple[float, float]]] = (
            [(sim.now, start)] if record_history else None)
        #: Applied transitions the accounting consumer has not yet split
        #: its segments at; maintained only when a consumer exists.
        self._unaccounted: List[Tuple[float, float]] = []
        self._track_boundaries = on_retarget is not None

    # ------------------------------------------------------------------
    @property
    def current_hz(self) -> float:
        """Frequency in effect at the current simulation time."""
        if (self._pending_target is not None
                and self.sim.now >= self._pending_apply_at):
            self._sync()
        return self._current_hz

    def effective_target(self) -> float:
        """The frequency the domain is heading to (or already at)."""
        self._sync()
        if self._latched_target is not None:
            return self._latched_target
        if self._pending_target is not None:
            return self._pending_target
        return self._current_hz

    def request(self, target_hz: float) -> None:
        """Request a change to ``target_hz`` (must be on the grid)."""
        if target_hz not in self._grid_set:
            raise ValueError(f"frequency {target_hz} not on the grid")
        if self._pending_target is None:
            # Nothing in flight (the common case): no lazy state to
            # apply, redundant requests return after one comparison.
            if target_hz == self._current_hz:
                return
        else:
            self._sync()
        if target_hz == self._effective_target_synced():
            return
        if self._pending_target is not None:
            # A transition is in flight: latch the newest target.
            self._latched_target = target_hz
        else:
            latency = self.config.transition_latency_s
            if latency <= 0:
                self._apply(target_hz, self.sim.now)
            else:
                self._pending_target = target_hz
                self._pending_apply_at = self.sim.now + latency
        if self.on_retarget is not None:
            self.on_retarget()

    def planned_transitions(self) -> Tuple[Tuple[float, float], ...]:
        """Future ``(apply_time, frequency)`` changes, soonest first.

        At most two entries: the in-flight transition and, if a different
        target is latched behind it, the back-to-back follow-up (which
        starts when the in-flight one lands, so its apply time is fixed
        too). A latched target equal to the in-flight one is skipped at
        apply time and is therefore not reported.
        """
        self._sync()
        pending = self._pending_target
        if pending is None:
            return _NO_TRANSITIONS
        latched = self._latched_target
        if latched is None or latched == pending:
            return ((self._pending_apply_at, pending),)
        return ((self._pending_apply_at, pending),
                (self._pending_apply_at + self.config.transition_latency_s,
                 latched))

    def settle(self) -> None:
        """Advance the clock through any in-flight transitions and apply
        them, reproducing what the trailing FREQ_CHANGE events of the
        event-driven implementation did after the last real event.

        Only valid when no earlier simulator events are pending (i.e.
        after a full drain); :meth:`Simulator.advance_to` enforces that.
        """
        while self._pending_target is not None:
            if self._pending_apply_at > self.sim.now:
                self.sim.advance_to(self._pending_apply_at)
            self._sync()

    def take_unaccounted(self) -> List[Tuple[float, float]]:
        """Drain the applied-transition list (for segment accounting)."""
        out = self._unaccounted
        if out:
            self._unaccounted = []
        return out

    # ------------------------------------------------------------------
    def _effective_target_synced(self) -> float:
        if self._latched_target is not None:
            return self._latched_target
        if self._pending_target is not None:
            return self._pending_target
        return self._current_hz

    def _sync(self) -> None:
        """Apply every in-flight transition whose time has come.

        Equivalent to the FREQ_CHANGE events having fired: the in-flight
        target lands at its apply time, then a latched target (if any,
        and different from the new frequency) starts its own
        ``transition_latency_s`` countdown from that moment.
        """
        while (self._pending_target is not None
               and self.sim.now >= self._pending_apply_at):
            target = self._pending_target
            applied_at = self._pending_apply_at
            self._pending_target = None
            self._apply(target, applied_at)
            if self._latched_target is not None:
                nxt = self._latched_target
                self._latched_target = None
                if nxt != self._current_hz:
                    # Latency is always > 0 here: zero-latency domains
                    # apply immediately and never latch.
                    self._pending_target = nxt
                    self._pending_apply_at = (
                        applied_at + self.config.transition_latency_s)

    def _apply(self, target_hz: float, at_time: float) -> None:
        old = self._current_hz
        if target_hz == old:
            return
        self._current_hz = target_hz
        self.transitions += 1
        if self.history is not None:
            self.history.append((at_time, target_hz))
        if self._track_boundaries:
            self._unaccounted.append((at_time, target_hz))
