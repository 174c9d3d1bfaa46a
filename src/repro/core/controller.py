"""The Rubik controller (paper Sec. 4).

On every request arrival and completion, Rubik evaluates the frequency
constraint (paper Eq. 2)

    f  >=  max_i  c_i / (L - (t_i + m_i))

where, for each request ``R_i`` in the system, ``t_i`` is the time it has
already spent in the system and ``(c_i, m_i)`` are the tail compute cycles
and tail memory time until its completion, read from the precomputed
target tail tables. The lowest DVFS step satisfying the constraint is
requested, and the maximum frequency when the required one exceeds the
grid. A term with ``L - t_i - m_i <= 0`` (a request that has already
lost its tail budget) is dropped from the max instead, and any such term
floors the request at the nominal frequency so the backlog still drains
(see :class:`~repro.core.decision_kernel.DecisionKernel`, and the
per-request reference loop in ``tests/core/test_decision_kernel.py``);
the native C span loop does the same. What paper Sec. 4 prescribes for
such terms is ROADMAP item 1's open question.

Table refreshes are periodic (paper: every 100 ms, costing ~0.2 ms of idle
time, which we treat as free) and piggyback on event processing; the PI
trimmer (Sec. 4.2, "Feedback-based fine-tuning") optionally adjusts the
internal latency target from the measured tail.

Rubik is application-agnostic: it sees only arrival timestamps and
counter-measured demands of *completed* requests, never the app's identity
or per-request hints (contrast with Adrenaline).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.config import check_size
from repro.core.decision_kernel import DecisionKernel, KernelStats
from repro.core.feedback import LatencyTargetTrimmer
from repro.core.histogram import Histogram
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
from repro.schemes.base import Scheme, SchemeContext, overrides
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request

#: Paper Sec. 4.2: the runtime refreshes the tables every 100 ms.
DEFAULT_UPDATE_PERIOD_S = 0.1

#: The methods the native span loop stands in for (``setup`` binds the
#: Python evaluator it replaces), or whose result it binds as a pure
#: function of its snapshot: a subclass that overrides any of them keeps
#: the Python event loop.
_SPAN_HOOKS = ("setup", "on_arrival", "on_completion",
               "_maybe_refresh_tables", "_refresh_tables")


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
                CLT approximation takes over. The four sizes above must
                be whole numbers >= 1 (a ``ValueError`` names the one
                that is not).

        Eq. 2 has two evaluators, decision-equivalent and pinned bitwise
        to a per-request reference loop by
        ``tests/core/test_decision_kernel.py``: the native C span loop
        (:mod:`repro.core._native.session`) runs a whole run when its
        library builds and loads and the run is eligible (see
        :meth:`native_session`), and the incremental Python kernel
        (:mod:`repro.core.decision_kernel`) runs any other — never an
        error: a machine without ``cc`` still runs everything.
        ``REPRO_NATIVE=0`` keeps every run on the Python kernel.
        """
        if not update_period_s > 0:  # also rejects NaN
            raise ValueError(
                f"update period must be positive (got {update_period_s!r})")
        self.update_period_s = update_period_s
        self.feedback_enabled = feedback
        self.profiler = DemandProfiler(profiler_window, min_samples)
        self.num_rows = check_size("num_rows", num_rows)
        self.max_explicit = check_size("max_explicit", max_explicit)
        #: The Python evaluator of Eq. 2, bound by setup(). The hooks run
        #: twice per simulated event, so it is the kernel's own
        #: ``decide``.
        self._decide: Optional[Callable[[Core], None]] = None
        #: What served the current (or last) run: ``"native"`` when the
        #: C span loop ran it, else ``"kernel"``. None before the first
        #: setup.
        self.decision_path: Optional[str] = None
        #: The current (or last) run's decision-path counters; None
        #: before the first setup.
        self.kernel_stats: Optional[KernelStats] = None
        self.tables: Optional[TargetTailTables] = None
        self.trimmer: Optional[LatencyTargetTrimmer] = None
        self._last_table_update = float("-inf")
        self._samples_at_last_update = 0
        #: Table refreshes of the current (or last) run.
        self.table_updates = 0
        #: The current (or last) run's refresh-subsystem counters:
        #: snapshots taken, table-cache hits/misses, lazily built table
        #: cells carried over by reuse.
        self.refresh_stats = RefreshStats()

    @property
    def name(self) -> str:  # type: ignore[override]
        return "Rubik" if self.feedback_enabled else "Rubik (No Feedback)"

    # ------------------------------------------------------------------
    def setup(self, sim: Simulator, core: Core, context: SchemeContext) -> None:
        super().setup(sim, core, context)
        # Every run starts from fresh learned state: a reused controller
        # carries no window, tables or refresh clock across runs, and
        # counts its refreshes per run, as it does its decisions.
        profiler = self.profiler
        self.profiler = DemandProfiler(profiler.window, profiler.min_samples,
                                       profiler.num_buckets)
        self.tables = None
        self._last_table_update = float("-inf")
        self._samples_at_last_update = 0
        self.table_updates = 0
        self.refresh_stats = RefreshStats()
        if self.feedback_enabled:
            self.trimmer = LatencyTargetTrimmer(
                bound_s=context.latency_bound_s,
                tail_percentile=context.tail_percentile,
            )
        # The kernel caches the context's DVFS grid: one per run.
        kernel = DecisionKernel(self)
        self._decide = kernel.decide
        self.kernel_stats = kernel.stats
        self.decision_path = "kernel"

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
        profiler = self.profiler
        if not profiler.ready:
            return
        if profiler.total_observed == self._samples_at_last_update:
            return  # nothing new to learn
        snapshot = profiler.snapshot()
        assert snapshot is not None
        self._refresh_tables(*snapshot, profiler.total_observed)

    def _refresh_tables(
            self, cycles: Histogram, memory: Histogram, observed: int,
            row_bounds: Optional[Sequence[List[float]]] = None) -> None:
        """Resolve the table pair of a demand snapshot taken after
        ``observed`` completions. The native span loop calls this with
        its own profiler's snapshot when C finds a refresh due, and with
        the (cycles, memory) tables' row bounds C computed for it, which
        a miss's tables take instead of computing them."""
        stats = self.refresh_stats
        stats.snapshots += 1
        # A table pair is a pure function of the snapshot + parameters,
        # so an unchanged fingerprint reuses the previous build outright
        # — including every lazily built row it has accumulated since
        # (value-identical to rebuilding), and the FFT powers Python's
        # own row builds made. The span loop carries only the rows over
        # into C, which rebuilds its own transforms.
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
                row_bounds=row_bounds,
            )
            TABLE_CACHE.put(key, tables)
            stats.cache_misses += 1
        else:
            stats.cache_hits += 1
            stats.columns_carried += (tables.cycles.built_cells()
                                      + tables.memory.built_cells())
        self.tables = tables
        self._last_table_update = self.sim.now
        self._samples_at_last_update = observed
        self.table_updates += 1

    def native_session(self, sim: Simulator, core: Core, trace):
        """Whole-run native event loop (see ``Scheme.native_session``).

        Engages for ``Rubik`` or a subclass that overrides none of
        ``_SPAN_HOOKS`` (``RubikColocScheme`` only renames itself), when
        the native library loads and the core/simulator pair is
        eligible — otherwise None, and the Python kernel setup() bound
        serves the run. The controller keeps the session's
        ``KernelStats``, never the session.
        """
        if overrides(self, Rubik, _SPAN_HOOKS):
            return None
        # Imported on first use: processes that never run Rubik skip it.
        from repro.core._native.session import NativeRunSession

        session = NativeRunSession.create(sim, core, self, trace)
        if session is not None:
            self.decision_path = "native"
            self.kernel_stats = session.stats
        return session
