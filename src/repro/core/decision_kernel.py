"""Incremental Eq. 2 decision kernel (perf layer 6; docs/performance.md).

Rubik evaluates the frequency constraint (paper Eq. 2)

    f  >=  max_i  c_i / (L - (now - a_i) - m_i)

on *every* arrival and completion, then rounds the result up onto the
DVFS grid. Between table refreshes the constraint is a pure function of
(tables, internal target, queue composition, head-request elapsed
bucket): the per-position tail pairs ``(c_i, m_i)`` come from one row of
each tail table, and the arrival times ``a_i`` are already maintained
incrementally by the core. The scalar path nevertheless recomputes
every term per event — O(queue) subtract/divide/compare work even when
a single request arrived into an otherwise unchanged queue.

The kernel exploits two structural facts:

* **The decision decomposes over the queue.** ``quantize_up`` is
  monotone, so the chosen step is ``max_i quantize_up(c_i / slack_i)``
  (with the hopeless floor folded in as one more term). Non-binding
  terms therefore never need their division: ``c_i <= f * slack_i``
  (exact float comparison, one multiplication) already proves
  ``quantize_up(c_i / slack_i)`` cannot exceed the running step ``f``.
  Only terms that *raise* the step divide — and they replicate the
  scalar oracle's arithmetic verbatim (same division, same
  ``bisect_left(grid, ratio - 1e-9)``), so the emitted
  ``request_frequency`` value is always bit-identical to the scalar
  path's. This *lean fold* is the workhorse at shallow queue depths,
  where per-event certificates cannot amortize.
* **Deep queues move slowly.** At depths >= ``CERT_MIN_QUEUE`` the fold
  additionally maintains conservative expiry clocks — ``tau``, before
  which no live term can exceed the current step, and ``sigma``, before
  which no live term can turn hopeless — plus the *witness*: the queue
  position whose term raised the decision to the current step. While
  the clocks hold and the eval context (tables identity, trimmer
  target, head-row bucket, exactly-one-queue-delta epoch) is unchanged,
  an arrival folds in one new term and a completion re-certifies the
  shifted witness with a single division: O(changed state), not
  O(queue). Completions additionally require the row lists to be
  non-decreasing along the queue (checked once per list, memoized) so
  the position shift can only have *lowered* surviving terms, keeping
  the stale clocks conservative.

The clocks are sound in float semantics because their 1e-9 + 1e-12*now
guard dwarfs every accumulated rounding error (~2^-50 relative on
second-scale slacks) while staying far below inter-event gaps; an
expired clock merely forces a re-fold, never a wrong answer.

Persistent per-queue state lives on the kernel and keys off the table
pair's *identity*: the cached ``c``/``m`` row lists are the tail
tables' own append-only per-row caches, so a steady-state refresh that
re-resolves the snapshot fingerprint to the same pair
(``TailTableCache`` hit) carries the kernel's state across the refresh
untouched. The ``Core.queue_epoch``
counter guarantees the kernel saw exactly one queue delta since its
last decision; any skip (a queue change it did not decide on) safely
degrades to a full fold.

The native span loop (:mod:`repro.core._native.session`) runs this
same kernel, ported to C, and mirrors its branch counters exactly.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from typing import Dict, Optional

#: Queue depth from which the fold also maintains the tau/sigma expiry
#: clocks that unlock the O(1) per-event paths. Below it the extra
#: bookkeeping costs more than a shallow re-fold saves.
CERT_MIN_QUEUE = 4

_INF = float("inf")


@dataclasses.dataclass
class KernelStats:
    """Decision-path counters (exposed like ``RefreshStats``).

    Attributes:
        decisions: kernel decisions taken.
        fast_arrivals: arrivals served by the O(1) incremental path.
        fast_completions: completions served by the O(1) path.
        lean_folds: shallow-queue re-folds (no certificate upkeep).
        cert_folds: deep-queue re-folds that refreshed the certificates.
        invalidations_tables: re-folds forced by a refresh that actually
            swapped the table pair.
        invalidations_target: re-folds forced by a trimmer move.
        invalidations_row: re-folds forced by a head elapsed-bucket
            change.
        invalidations_epoch: re-folds forced by a queue-epoch skip
            (a queue delta the kernel did not decide on).
    """

    idle_decisions: int = 0
    warmup_decisions: int = 0
    fast_arrivals: int = 0
    fast_completions: int = 0
    lean_folds: int = 0
    cert_folds: int = 0
    invalidations_tables: int = 0
    invalidations_target: int = 0
    invalidations_row: int = 0
    invalidations_epoch: int = 0

    def as_dict(self) -> Dict[str, int]:
        out = dataclasses.asdict(self)
        out["decisions"] = self.decisions
        return out

    @property
    def decisions(self) -> int:
        """All kernel decisions (every branch counts itself — keeping
        the hot prologue free of an unconditional increment)."""
        return (self.idle_decisions + self.warmup_decisions
                + self.fast_arrivals + self.fast_completions
                + self.lean_folds + self.cert_folds)


class DecisionKernel:
    """Incremental, allocation-free evaluator of Eq. 2 for one core."""

    __slots__ = (
        "controller", "stats", "_dvfs", "_grid", "_inv_grid", "_nsteps",
        "_min_hz", "_max_hz", "_nominal_idx", "_certs",
        "_tables", "_btables", "_cbounds", "_mbounds", "_target",
        "_row_c", "_row_m", "_crow", "_mrow", "_mono_ok", "_mono_len",
        "_epoch", "_n", "_fidx", "_witness", "_any_hopeless", "_tau_abs",
        "_sigma_abs",
    )

    def __init__(self, controller) -> None:
        self.controller = controller
        self.stats = KernelStats()
        dvfs = controller.context.dvfs
        self._dvfs = dvfs
        grid = dvfs.frequencies
        self._grid = grid
        self._inv_grid = tuple(1.0 / f for f in grid)
        self._nsteps = len(grid)
        self._min_hz = dvfs.min_hz
        self._max_hz = dvfs.max_hz
        # The step the hopeless floor rounds to: identical, by
        # construction, to ``quantize_up(nominal_hz)`` (clamped).
        self._nominal_idx = min(
            bisect_left(grid, dvfs.nominal_hz - 1e-9), len(grid) - 1)
        self._certs = False  # decision state + tau/sigma clocks usable
        self._tables = None       # identity key of _crow/_mrow
        self._btables = None      # identity key of _cbounds/_mbounds
        self._cbounds: Optional[list] = None
        self._mbounds: Optional[list] = None
        self._target = 0.0
        self._row_c = -1
        self._row_m = -1
        self._crow: Optional[list] = None
        self._mrow: Optional[list] = None
        self._mono_ok = True
        self._mono_len = 0
        self._epoch = -1
        self._n = 0
        self._fidx = 0
        self._witness = -1
        self._any_hopeless = False
        self._tau_abs = -_INF
        self._sigma_abs = -_INF

    # ------------------------------------------------------------------
    def decide(self, core) -> None:
        """Emit the Eq. 2 frequency request for the current queue."""
        ctrl = self.controller
        # The arrival buffer holds current + queued by invariant; reading
        # it directly skips the queue_length property call per event.
        pending = core._pending_arrivals
        n = len(pending)
        if n == 0:
            # Empty system: park at the bottom of the grid. The next
            # arrival re-folds a one-term queue (trivially cheap).
            core.request_frequency(self._min_hz)
            self.stats.idle_decisions += 1
            self._certs = False
            return
        tables = ctrl.tables
        if tables is None:
            core.request_frequency(self._max_hz)
            self.stats.warmup_decisions += 1
            self._certs = False
            return
        trimmer = ctrl.trimmer
        target = (trimmer.internal_target_s if trimmer is not None
                  else ctrl.context.latency_bound_s)
        now = ctrl.sim.now
        elapsed_c, elapsed_m = core.current_request_elapsed()
        if tables is not self._btables:
            self._btables = tables
            self._cbounds = tables.cycles._row_bounds_list
            self._mbounds = tables.memory._row_bounds_list
        row_c = bisect_right(self._cbounds, elapsed_c) - 1
        row_m = bisect_right(self._mbounds, elapsed_m) - 1

        if n < CERT_MIN_QUEUE:
            # Shallow queue (dominant at moderate load): lean fold,
            # inline — no certificate upkeep, row-list refs cached
            # across events, one division per binding term only.
            crow = self._crow
            mrow = self._mrow
            if (row_c != self._row_c or row_m != self._row_m
                    or tables is not self._tables or crow is None
                    or len(crow) < n or len(mrow) < n):
                crow = tables.cycles.extended_row_list(row_c, n)
                mrow = tables.memory.extended_row_list(row_m, n)
                if crow is not self._crow or mrow is not self._mrow:
                    self._mono_ok = True
                    self._mono_len = 0
                self._crow = crow
                self._mrow = mrow
                self._tables = tables
                self._row_c = row_c
                self._row_m = row_m
            self._certs = False
            self.stats.lean_folds += 1
            grid = self._grid
            last = self._nsteps - 1
            if n == 1:
                slack = (target - (now - pending[0])) - mrow[0]
                if slack <= 0.0:
                    idx = self._nominal_idx
                else:
                    idx = bisect_left(grid, crow[0] / slack - 1e-9)
                    if idx > last:
                        idx = last
                core.request_frequency(grid[idx])
                return
            fidx = 0
            f = grid[0]
            any_h = False
            for c_i, m_i, arrival in zip(crow, mrow, pending):
                slack = (target - (now - arrival)) - m_i
                if slack <= 0.0:
                    any_h = True
                elif c_i > f * slack:
                    idx = bisect_left(grid, c_i / slack - 1e-9)
                    if idx >= last:
                        fidx = last
                        break
                    fidx = idx
                    f = grid[fidx]
            if fidx < last and any_h and fidx < self._nominal_idx:
                fidx = self._nominal_idx
            core.request_frequency(grid[fidx])
            return

        epoch = core.queue_epoch
        if self._certs and epoch == self._epoch + 1:
            stats = self.stats
            if tables is not self._tables:
                stats.invalidations_tables += 1
            elif target != self._target:
                stats.invalidations_target += 1
            elif row_c != self._row_c or row_m != self._row_m:
                stats.invalidations_row += 1
            elif n == self._n + 1:
                if self._arrival_fast(core, n, now, target):
                    self._epoch = epoch
                    self._n = n
                    return
            elif n == self._n - 1:
                if self._completion_fast(core, n, now, target):
                    self._epoch = epoch
                    self._n = n
                    return
        elif self._certs:
            self.stats.invalidations_epoch += 1
        self._full_fold(core, n, now, target, tables, row_c, row_m, epoch)

    # ------------------------------------------------------------------
    def _arrival_fast(self, core, n: int, now: float,
                      target: float) -> bool:
        """Fold the newest term onto the certified previous decision.

        Returns False when a certificate expired (the caller re-folds).
        """
        fidx = self._fidx
        grid = self._grid
        last = self._nsteps - 1
        any_h = self._any_hopeless
        if fidx < last and now > self._tau_abs:
            return False  # some live term may now exceed the step
        if (not any_h and fidx < self._nominal_idx
                and now > self._sigma_abs):
            return False  # some live term may have turned hopeless
        witness = self._witness
        floored = any_h and fidx == self._nominal_idx
        mrow = self._mrow
        crow = self._crow
        pending = core._pending_arrivals
        if fidx > 0 and not floored:
            # Lower bound: the witness's ratio only grows with the clock
            # while the composition holds (tau keeps it <= the step from
            # above) — unless it turned hopeless, which would *remove*
            # its term entirely.
            if witness < 0:
                return False
            if (target - (now - pending[witness])) - mrow[witness] <= 0.0:
                return False
        if fidx == last:
            # Pinned at the top step: a new term cannot raise it and the
            # floor cannot exceed it.
            core.request_frequency(grid[last])
            self.stats.fast_arrivals += 1
            return True

        # Extend the shared row lists to cover the new position.
        n_idx = n - 1
        if len(crow) < n or len(mrow) < n:
            tables = self._tables
            crow = tables.cycles.extended_row_list(self._row_c, n)
            mrow = tables.memory.extended_row_list(self._row_m, n)
            self._crow = crow
            self._mrow = mrow

        c_i = crow[n_idx]
        slack = (target - (now - pending[-1])) - mrow[n_idx]
        if slack <= 0.0:
            any_h = True
        else:
            guard = 1e-9 + 1e-12 * now
            sig = now + slack - guard
            if sig < self._sigma_abs:
                self._sigma_abs = sig
            p = grid[fidx] * slack
            if c_i <= p:
                tau = now + (p - c_i) * self._inv_grid[fidx] - guard
                if tau < self._tau_abs:
                    self._tau_abs = tau
            else:
                # The new term binds: its exact step, scalar arithmetic.
                idx = bisect_left(grid, c_i / slack - 1e-9)
                fidx = idx if idx < last else last
                witness = n_idx
                if fidx < last:
                    p = grid[fidx] * slack
                    tau = now + (p - c_i) * self._inv_grid[fidx] - guard
                    if tau < self._tau_abs:
                        self._tau_abs = tau
        if any_h and fidx < self._nominal_idx:
            fidx = self._nominal_idx
            witness = -1  # the floor, not a term, holds the step up
        self._fidx = fidx
        self._witness = witness
        self._any_hopeless = any_h
        core.request_frequency(grid[fidx])
        self.stats.fast_arrivals += 1
        return True

    # ------------------------------------------------------------------
    def _completion_fast(self, core, n: int, now: float,
                         target: float) -> bool:
        """Keep the decision across a head departure (positions shift).

        For steps below the top, soundness needs the row lists to be
        non-decreasing along the queue: then every surviving term's
        ratio can only have dropped, so the stale ``tau``/``sigma``
        clocks stay conservative and the re-divided witness alone pins
        the step from below. At the top step the fresh witness division
        pins the decision by itself.
        """
        if self._any_hopeless:
            return False  # the floor (or a hopeless term) may lift
        fidx = self._fidx
        grid = self._grid
        last = self._nsteps - 1
        if fidx == 0:
            if now > self._tau_abs or now > self._sigma_abs:
                return False
            if not self._ensure_mono(self._n):
                return False
            core.request_frequency(grid[0])
            self._witness = -1
            self.stats.fast_completions += 1
            return True
        b = self._witness - 1
        if b < 0:
            return False  # the binding term departed
        if fidx < last:
            if now > self._tau_abs:
                return False
            if fidx < self._nominal_idx and now > self._sigma_abs:
                return False
            if not self._ensure_mono(self._n):
                return False
        slack = (target - (now - core._pending_arrivals[b])) - self._mrow[b]
        if slack <= 0.0:
            return False
        idx = bisect_left(grid, self._crow[b] / slack - 1e-9)
        if (idx if idx < last else last) != fidx:
            return False  # the witness no longer pins this step
        core.request_frequency(grid[fidx])
        self._witness = b
        self.stats.fast_completions += 1
        return True

    # ------------------------------------------------------------------
    def _ensure_mono(self, upto: int) -> bool:
        """Verify the cached row lists are non-decreasing over the first
        ``upto`` positions (prefix memoized; lists are append-only)."""
        if not self._mono_ok:
            return False
        k = self._mono_len
        if k >= upto:
            return True
        crow = self._crow
        mrow = self._mrow
        upto = min(upto, len(crow), len(mrow))
        for j in range(k if k > 1 else 1, upto):
            if crow[j] < crow[j - 1] or mrow[j] < mrow[j - 1]:
                self._mono_ok = False
                return False
        self._mono_len = upto
        return True

    # ------------------------------------------------------------------
    def _full_fold(self, core, n: int, now: float, target: float,
                   tables, row_c: int, row_m: int, epoch: int) -> None:
        """Re-fold the whole (deep) queue onto the grid, refreshing the
        tau/sigma clocks that unlock the O(1) paths.

        Non-binding terms are filtered with one multiplication; binding
        terms replicate the scalar division + quantization verbatim.
        Only called at depths >= ``CERT_MIN_QUEUE`` (shallower queues
        take the inline lean fold in :meth:`decide`).
        """
        stats = self.stats
        stats.cert_folds += 1
        if (row_c == self._row_c and row_m == self._row_m
                and tables is self._tables and self._crow is not None
                and len(self._crow) >= n and len(self._mrow) >= n):
            crow = self._crow
            mrow = self._mrow
        else:
            crow = tables.cycles.extended_row_list(row_c, n)
            mrow = tables.memory.extended_row_list(row_m, n)
            if crow is not self._crow or mrow is not self._mrow:
                self._mono_ok = True
                self._mono_len = 0
            self._tables = tables
            self._row_c = row_c
            self._row_m = row_m
            self._crow = crow
            self._mrow = mrow
        grid = self._grid
        last = self._nsteps - 1
        fidx = 0
        f = grid[0]
        any_h = False
        witness = -1
        inv_grid = self._inv_grid
        inv_f = inv_grid[0]
        guard = 1e-9 + 1e-12 * now
        tau_abs = _INF
        sigma_abs = _INF
        for i, (c_i, m_i, arrival) in enumerate(
                zip(crow, mrow, core._pending_arrivals)):
            slack = (target - (now - arrival)) - m_i
            if slack <= 0.0:
                any_h = True
                continue
            sig = now + slack - guard
            if sig < sigma_abs:
                sigma_abs = sig
            p = f * slack
            if c_i <= p:
                tau = now + (p - c_i) * inv_f - guard
                if tau < tau_abs:
                    tau_abs = tau
                continue
            idx = bisect_left(grid, c_i / slack - 1e-9)
            witness = i
            if idx >= last:
                # Pinned at the top step regardless of the remaining
                # terms; the witness re-division replaces the expiry
                # clocks while pinned.
                fidx = last
                tau_abs = _INF
                sigma_abs = _INF
                break
            fidx = idx
            f = grid[fidx]
            inv_f = inv_grid[fidx]
            tau = now + (f * slack - c_i) * inv_f - guard
            if tau < tau_abs:
                tau_abs = tau
        if fidx < last and any_h and fidx < self._nominal_idx:
            fidx = self._nominal_idx
            witness = -1
        self._tau_abs = tau_abs
        self._sigma_abs = sigma_abs
        self._certs = True
        self._target = target
        self._epoch = epoch
        self._n = n
        self._fidx = fidx
        self._witness = witness
        self._any_hopeless = any_h
        core.request_frequency(grid[fidx])
