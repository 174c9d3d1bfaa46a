"""The Rubik controller (paper Sec. 4).

On every request arrival and completion, Rubik evaluates the frequency
constraint (paper Eq. 2)

    f  >=  max_i  c_i / (L - (t_i + m_i))

where, for each request ``R_i`` in the system, ``t_i`` is the time it has
already spent in the system and ``(c_i, m_i)`` are the tail compute cycles
and tail memory time until its completion, read from the precomputed
target tail tables. The lowest DVFS step satisfying the constraint is
requested; if no step can (``L - t_i - m_i <= 0`` or the required
frequency exceeds the grid), the maximum frequency is used — latency is
already compromised and Rubik recovers as fast as possible.

Table refreshes are periodic (paper: every 100 ms, costing ~0.2 ms of idle
time, which we treat as free) and piggyback on event processing; the PI
trimmer (Sec. 4.2, "Feedback-based fine-tuning") optionally adjusts the
internal latency target from the measured tail.

Rubik is application-agnostic: it sees only arrival timestamps and
counter-measured demands of *completed* requests, never the app's identity
or per-request hints (contrast with Adrenaline).
"""

from __future__ import annotations

from typing import Optional

from repro.core._native import build as native_build
from repro.core.decision_kernel import DecisionKernel, KernelStats
from repro.core.feedback import LatencyTargetTrimmer
from repro.core.profiler import DemandProfiler
from repro.core.table_cache import (
    TABLE_CACHE,
    RefreshStats,
    snapshot_fingerprint,
)
from repro.core.tail_tables import (
    DEFAULT_MAX_EXPLICIT,
    DEFAULT_NUM_ROWS,
    TargetTailTables,
)
from repro.schemes.base import Scheme, SchemeContext
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request

#: Paper Sec. 4.2: the runtime refreshes the tables every 100 ms.
DEFAULT_UPDATE_PERIOD_S = 0.1


def _validate_kernel_mode(value: object) -> None:
    """``kernel=`` accepts exactly True, False, ``"auto"``, ``"native"``."""
    if value is True or value is False or value in ("auto", "native"):
        return
    raise ValueError(
        f"kernel must be True, False, 'auto', or 'native' (got {value!r})")


class Rubik(Scheme):
    """Fine-grain analytical DVFS for latency-critical workloads."""

    def __init__(
        self,
        update_period_s: float = DEFAULT_UPDATE_PERIOD_S,
        feedback: bool = True,
        profiler_window: int = 2000,
        min_samples: int = 16,
        num_rows: int = DEFAULT_NUM_ROWS,
        max_explicit: int = DEFAULT_MAX_EXPLICIT,
        vectorized: bool = True,
        kernel: object = "auto",
    ) -> None:
        """Args:
            update_period_s: target-tail-table refresh period.
            feedback: enable the PI latency-target trimmer (paper evaluates
                Rubik both with and without it, Fig. 9).
            profiler_window: completions retained for the demand model.
            min_samples: completions required before the model activates
                (until then Rubik conservatively runs at max frequency).
            num_rows: elapsed-work rows in the tail tables (octiles).
            max_explicit: queue depth covered by convolution before the
                CLT approximation takes over.
            vectorized: evaluate Eq. 2 as one NumPy expression over the
                whole queue. The scalar per-request loop is kept
                selectable (``vectorized=False``) so equivalence tests
                can pin every path to identical decisions.
            kernel: which incremental decision kernel to dispatch to.
                Tri-state:

                * ``"auto"`` (default) — the native C kernel
                  (:mod:`repro.core._native`) when its library builds
                  and loads, else the Python kernel
                  (:mod:`repro.core.decision_kernel`).
                * ``"native"`` — require the native kernel; if it is
                  unavailable the loader warns once and the Python
                  kernel serves (never an error — a box without ``cc``
                  still runs everything).
                * ``True`` — always the Python kernel.
                * ``False`` — no kernel: the plain vectorized path.

                All four resolutions are decision-equivalent, pinned
                bitwise to the scalar oracle by the 4-path suite in
                ``tests/core/test_decision_kernel.py``; requires
                ``vectorized`` (the scalar oracle always wins when
                ``vectorized=False``). The ``REPRO_NATIVE`` environment
                variable (``1``/``0``/``auto``) gates the native build
                process-wide.
        """
        if update_period_s <= 0:
            raise ValueError("update period must be positive")
        _validate_kernel_mode(kernel)
        self.update_period_s = update_period_s
        self.feedback_enabled = feedback
        self.profiler = DemandProfiler(profiler_window, min_samples)
        self.num_rows = num_rows
        self.max_explicit = max_explicit
        self._vectorized = vectorized
        self._kernel_enabled = kernel
        self._kernel: Optional[DecisionKernel] = None
        self.tables: Optional[TargetTailTables] = None
        self.trimmer: Optional[LatencyTargetTrimmer] = None
        self._last_table_update = float("-inf")
        self._samples_at_last_update = 0
        self.table_updates = 0
        #: Refresh-subsystem counters: snapshots taken, table-cache
        #: hits/misses, lazily built table cells carried over by reuse.
        self.refresh_stats = RefreshStats()
        # Pre-bound hot-path dispatch: the hooks run twice per simulated
        # event, and an if-dispatch per call is measurable there. The
        # `vectorized`/`kernel` property setters keep this in sync.
        self._rebind_decide()

    def _resolved_kernel(self) -> object:
        """The kernel mode after resolving ``"auto"``/``"native"``
        against native-library availability: ``"native"``, ``True``
        (Python kernel) or ``False``."""
        mode = self._kernel_enabled
        if mode == "auto" or mode == "native":
            # available() memoizes the build/load attempt and handles
            # the warn-once fallback notice; REPRO_NATIVE=0 opts out
            # silently.
            return "native" if native_build.available() else True
        return mode

    def _rebind_decide(self) -> None:
        """Bind ``_decide`` to the selected Eq. 2 evaluation path."""
        if not self._vectorized:
            self._decide = self._update_frequency_scalar
            return
        mode = self._resolved_kernel()
        if mode == "native":
            self._decide = self._update_frequency_native
        elif mode:
            self._decide = self._update_frequency_kernel
        else:
            self._decide = self._update_frequency_vectorized

    @property
    def name(self) -> str:  # type: ignore[override]
        return "Rubik" if self.feedback_enabled else "Rubik (No Feedback)"

    @property
    def vectorized(self) -> bool:
        """Whether the NumPy/kernel paths are enabled (False = scalar)."""
        return self._vectorized

    @vectorized.setter
    def vectorized(self, value: bool) -> None:
        # Keep the pre-bound hot-path dispatch in sync with the flag so
        # toggling after construction still takes effect.
        self._vectorized = value
        if self._kernel is not None:
            # A toggle may skip queue deltas; the epoch check would catch
            # it, but an explicit invalidation keeps intent obvious.
            self._kernel.invalidate()
        self._rebind_decide()

    @property
    def kernel(self) -> object:
        """The configured kernel mode: ``"auto"``, ``"native"``,
        ``True`` (Python kernel) or ``False``."""
        return self._kernel_enabled

    @kernel.setter
    def kernel(self, value: object) -> None:
        _validate_kernel_mode(value)
        self._kernel_enabled = value
        if self._kernel is not None:
            self._kernel.invalidate()
        self._rebind_decide()

    @property
    def decision_path(self) -> str:
        """The Eq. 2 evaluation path currently bound: ``"scalar"``,
        ``"vectorized"``, ``"kernel"``, or ``"native"`` — the path
        *actually taken* (``"auto"``/``"native"`` report ``"kernel"``
        when the native library is unavailable)."""
        if not self._vectorized:
            return "scalar"
        mode = self._resolved_kernel()
        if mode == "native":
            return "native"
        return "kernel" if mode else "vectorized"

    @property
    def kernel_stats(self) -> Optional[KernelStats]:
        """Decision-path counters of the active kernel (None before the
        kernel's first decision, or when the kernel path is off)."""
        return self._kernel.stats if self._kernel is not None else None

    # ------------------------------------------------------------------
    def setup(self, sim: Simulator, core: Core, context: SchemeContext) -> None:
        super().setup(sim, core, context)
        # The kernel caches the context's DVFS grid; rebuild per run so a
        # reused controller cannot carry a stale grid across contexts
        # (and rebind _decide away from a previous run's kernel).
        self._kernel = None
        self._rebind_decide()
        if self.feedback_enabled:
            self.trimmer = LatencyTargetTrimmer(
                bound_s=context.latency_bound_s,
                tail_percentile=context.tail_percentile,
            )

    def initial_frequency(self) -> float:
        """Start at max: safe before the demand model has data."""
        return self.context.dvfs.max_hz

    # ------------------------------------------------------------------
    # Event hooks: Fig. 3 — adjust frequency on each arrival/completion.
    # ------------------------------------------------------------------
    def on_arrival(self, core: Core, request: Request) -> None:
        self._maybe_refresh_tables()
        self._decide(core)

    def on_completion(self, core: Core, request: Request) -> None:
        # Counter-measured demands of the completed request feed the model.
        self.profiler.observe(request.compute_cycles, request.memory_time_s)
        if self.trimmer is not None:
            self.trimmer.observe(self.sim.now, request.response_time)
        self._maybe_refresh_tables()
        self._decide(core)

    # ------------------------------------------------------------------
    @property
    def internal_target_s(self) -> float:
        """The latency target the analytical model currently aims at."""
        if self.trimmer is not None:
            return self.trimmer.internal_target_s
        return self.context.latency_bound_s

    def _maybe_refresh_tables(self) -> None:
        now = self.sim.now
        if now - self._last_table_update < self.update_period_s:
            return
        if not self.profiler.ready:
            return
        if self.profiler.total_observed == self._samples_at_last_update:
            return  # nothing new to learn
        snapshot = self.profiler.snapshot()
        assert snapshot is not None
        cycles, memory = snapshot
        stats = self.refresh_stats
        stats.snapshots += 1
        # A table pair is a pure function of the snapshot + parameters,
        # so an unchanged fingerprint reuses the previous build outright
        # — including every lazily built row / FFT power it has
        # accumulated since (value-identical to rebuilding).
        key = snapshot_fingerprint(
            cycles, memory, self.context.tail_quantile,
            self.num_rows, self.max_explicit)
        tables = TABLE_CACHE.get(key)
        if tables is None:
            tables = TargetTailTables(
                cycles,
                memory,
                quantile=self.context.tail_quantile,
                num_rows=self.num_rows,
                max_explicit=self.max_explicit,
            )
            TABLE_CACHE.put(key, tables)
            stats.cache_misses += 1
        else:
            stats.cache_hits += 1
            stats.columns_carried += (tables.cycles.built_cells()
                                      + tables.memory.built_cells())
        if tables is self.tables:
            # Steady state: the fingerprint re-resolved to the pair the
            # controller already holds — the decision kernel's per-queue
            # state (keyed on table identity) survives this refresh.
            stats.object_carries += 1
            kernel = self._kernel
            if kernel is not None:
                kernel.note_refresh_carry()
        self.tables = tables
        self._last_table_update = now
        self._samples_at_last_update = self.profiler.total_observed
        self.table_updates += 1

    def _update_frequency_kernel(self, core: Core) -> None:
        """First kernel dispatch: build the kernel (it caches the
        context's DVFS grid, available only after setup) and rebind
        ``_decide`` straight to it — no per-event wrapper hop."""
        kernel = self._kernel
        if type(kernel) is not DecisionKernel:
            # None, or a leftover native kernel from a mid-run toggle
            # (whose incremental state a fresh fold safely replaces).
            kernel = self._kernel = DecisionKernel(self)
        if self._decide.__func__ is Rubik._update_frequency_kernel:
            self._decide = kernel.decide
        kernel.decide(core)

    def _update_frequency_native(self, core: Core) -> None:
        """First native dispatch: build the ctypes wrapper and rebind
        ``_decide`` straight to it (mirrors the Python-kernel hop)."""
        from repro.core._native.kernel import NativeDecisionKernel

        kernel = self._kernel
        if not isinstance(kernel, NativeDecisionKernel):
            kernel = self._kernel = NativeDecisionKernel(self)
        if self._decide.__func__ is Rubik._update_frequency_native:
            self._decide = kernel.decide
        kernel.decide(core)

    def native_session(self, sim: Simulator, core: Core, trace):
        """Whole-run native event loop (see ``Scheme.native_session``).

        Engages only for a stock ``Rubik`` (subclasses overriding the
        event hooks or refresh logic keep the Python loop) resolved to
        the native decision path, on an eligible core/simulator pair —
        otherwise None, and ``run_trace`` runs the Python event loop.
        """
        if type(self) is not Rubik:
            return None
        if self._resolved_kernel() != "native" or not self._vectorized:
            return None
        from repro.core._native.session import NativeRunSession

        return NativeRunSession.create(sim, core, self, trace)

    def _update_frequency_vectorized(self, core: Core) -> None:
        """Eq. 2 over the whole queue in one NumPy expression.

        ``c`` and ``m`` are precomputed table-row slices (one row lookup
        per demand type), arrival times come from the core's incremental
        buffer — no per-request Python loop, no ``pending_requests()``
        list builds. Decision-equivalent to the scalar path: the same
        float64 divisions feed the same max.
        """
        dvfs = self.context.dvfs
        n = core.queue_length
        if n == 0:
            core.request_frequency(dvfs.min_hz)
            return
        tables = self.tables
        if tables is None:
            core.request_frequency(dvfs.max_hz)
            return

        trimmer = self.trimmer
        target = (trimmer.internal_target_s if trimmer is not None
                  else self.context.latency_bound_s)
        elapsed_c, elapsed_m = core.current_request_elapsed()
        cycles = tables.cycles
        memory = tables.memory
        now = self.sim.now

        if n == 1:
            # Single-request fast case (the dominant one at moderate
            # load): no row-list iteration at all, same float64 ops.
            slack = (target - (now - core.pending_arrivals[0])) - (
                memory.tails_head_list(elapsed_m, 1)[0])
            if slack <= 0.0:
                required_hz = dvfs.nominal_hz
            else:
                required_hz = cycles.tails_head_list(elapsed_c, 1)[0] / slack
        elif n <= cycles.max_explicit:
            # Shallow-queue fast path (the overwhelmingly common case):
            # one row lookup per demand type, then plain-float arithmetic
            # over cached row lists. Bit-identical to the array expression
            # below — same float64 operations in the same order — but
            # without per-call small-array dispatch overhead.
            crow = cycles.tails_head_list(elapsed_c, n)
            mrow = memory.tails_head_list(elapsed_m, n)
            required_hz = 0.0
            any_hopeless = False
            for i, arrival in enumerate(core.pending_arrivals):
                slack = (target - (now - arrival)) - mrow[i]
                if slack <= 0.0:
                    any_hopeless = True
                else:
                    ratio = crow[i] / slack
                    if ratio > required_hz:
                        required_hz = ratio
            if any_hopeless:
                # Non-positive Eq. 2 denominator: see the scalar path for
                # why hopeless requests floor the frequency at nominal.
                required_hz = max(required_hz, dvfs.nominal_hz)
        else:
            c = cycles.tails_for_queue(n, elapsed_c)
            m = memory.tails_for_queue(n, elapsed_m)
            slack = (target - (now - core.pending_arrival_times())) - m
            if slack.min() > 0.0:
                required_hz = (c / slack).max()
            else:
                feasible = slack > 0.0
                required_hz = 0.0
                if feasible.any():
                    required_hz = (c[feasible] / slack[feasible]).max()
                required_hz = max(required_hz, dvfs.nominal_hz)
        if required_hz >= dvfs.max_hz:
            core.request_frequency(dvfs.max_hz)
        else:
            core.request_frequency(dvfs.quantize_up(required_hz))

    def _update_frequency_scalar(self, core: Core) -> None:
        requests = core.pending_requests()
        dvfs = self.context.dvfs
        if not requests:
            # Empty system: nothing constrains frequency; park at the
            # bottom of the grid (idle power is handled by sleep states).
            core.request_frequency(dvfs.min_hz)
            return
        if self.tables is None:
            core.request_frequency(dvfs.max_hz)
            return

        now = self.sim.now
        target = self.internal_target_s
        elapsed_c, elapsed_m = core.current_request_elapsed()

        required_hz = 0.0
        any_hopeless = False
        for i, req in enumerate(requests):
            c_i, m_i = self.tables.constraint(i, elapsed_c, elapsed_m)
            slack = target - (now - req.arrival_time) - m_i
            if slack <= 0.0:
                # Constraint unsatisfiable at any frequency (Eq. 2's
                # denominator is non-positive): the request has already
                # lost its tail budget, so burning max frequency cannot
                # save it and it imposes no *latency* constraint of its
                # own. It does impose a *stability* constraint: the
                # backlog it represents must drain at least at the
                # nominal rate, or future arrivals inherit an ever-
                # growing queue (with no floor, a fully-hopeless queue
                # would leave Eq. 2 unconstrained and park the core at
                # minimum frequency — a death spiral under overload).
                any_hopeless = True
                continue
            required_hz = max(required_hz, c_i / slack)

        if any_hopeless:
            required_hz = max(required_hz, dvfs.nominal_hz)
        if required_hz >= dvfs.max_hz:
            core.request_frequency(dvfs.max_hz)
        else:
            core.request_frequency(dvfs.quantize_up(required_hz))
