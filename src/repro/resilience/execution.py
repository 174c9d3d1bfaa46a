"""Sweep execution: the shared worker pool and the one per-cell loop
that hands cells to it (see ``docs/robustness.md``).

Experiment drivers fan out over *independent* cells (loads, (app, mix)
pairs, seeds). Each cell re-derives everything it needs from plain
picklable arguments, so worker processes never share simulator state
and results are bitwise-identical to a serial run — parallelism only
reorders wall-clock, never data.

Every sweep takes the same path:

    results = parallel_map(_point_worker, args_list)      # strict
    results = resilient_map(_point_worker, args_list,     # under a
                            policy=RetryPolicy(...))      # policy

    with WorkerPool() as pool:          # regenerate-all flow
        run_fig6(...)                   # every sweep inside the block
        run_table1(...)                 # reuses ONE pool

* Sizing: :func:`effective_workers` gives ``min(cpus, len(items))``;
  the ``REPRO_MAX_WORKERS`` environment variable caps it globally
  (``0`` or ``1`` forces serial; invalid values warn once and read as
  unset). One effective worker runs the cells in-process, in input
  order, with no pool and no pickling.
* Pool lifetime: inside a :class:`WorkerPool` context a sweep uses the
  shared pool, created lazily on the first dispatch that needs workers;
  outside one, a sweep opens a pool of ``effective_workers`` workers
  and closes it when done. Every pooled sweep enters through
  :meth:`WorkerPool.map`.
* The per-cell loop: each cell is its own ``apply_async`` task wrapped
  in :func:`_run_cell`, at most one per worker at a time. The parent
  wakes when a cell finishes (its callback feeds a queue) and, between
  completions, polls worker liveness every ``poll_interval_s``.

A sweep runs under a :class:`RetryPolicy` or, with none, under the
fixed *strict* setting (:func:`parallel_map`, and :func:`run_cells
<repro.experiments.common.run_cells>` outside :func:`use_policy`):

* **strict** — no retries, no timeout, no cell fault hooks. The first
  failed cell stops the sweep: the pool is reaped and the cell's own
  exception re-raises (with the remote traceback as ``__cause__``), or,
  if its worker died, a ``RuntimeError`` naming the cell;
* **under a policy** — a cell **exception** is retried up to
  ``max_retries`` times with deterministic seeded backoff, then
  surfaces as a :class:`CellFailure` carrying the remote traceback; the
  sweep's other cells complete. A cell exceeding the **soft timeout**
  is charged a failed attempt; the pool is rebuilt (a hung worker
  cannot be cancelled, only its pool discarded) and unexpired in-flight
  cells are re-dispatched *uncharged*.

Either way a **lost worker** (SIGKILL, OOM, ``os._exit``) is detected by
pid liveness. Each pooled attempt drops a start marker naming its
worker's pid, so only the cells that started on a dead pid are charged
a ``worker-lost`` attempt; unfinished neighbours on live workers are
re-dispatched uncharged, and the pool is rebuilt. After
``max_pool_losses`` rebuilds the sweep **degrades to serial**
in-process execution for the remaining cells — forward progress over
parallelism.

Determinism: cell *values* never depend on scheduling. Retries re-run
the same pure cell function, backoff is seeded (hash-derived, no RNG
state), and the only wall-clock reads feed scheduling decisions
(timeouts), never results. A fault-free sweep returns the same values
under any policy.

Serial execution (one worker, degraded mode) retries and injects
``cell.raise`` identically, but cannot enforce timeouts or survive
``worker.crash``/``worker.hang`` — those two hooks only fire inside pool
workers, so a serial run never kills its own process.

Workers must be module-level functions (picklable); keep per-cell
argument tuples small — traces are regenerated inside the worker from
(app, load, seed), not shipped across the pipe.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import multiprocessing.pool
import os
import queue
import tempfile
import threading
import time
import traceback
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro import config
from repro.resilience import faults

#: Environment variable capping worker processes (0/1 = force serial).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Innermost active shared pool (set by ``WorkerPool.__enter__``).
_active_pool: Optional["WorkerPool"] = None

#: True inside pool worker processes: nested sweeps in a worker must
#: run serially (daemonic processes cannot fork children).
_in_worker = False

#: Process-lifetime count of pools actually spawned (fresh + shared);
#: ``test_regenerate_subset_through_one_pool`` asserts a regenerate
#: flow creates at most one.
_pools_created = 0

#: Env values already warned about (warn once per distinct value).
_warned_env_values: Set[str] = set()

#: Budget for one bounded teardown attempt in :func:`_reap_pool`.
_REAP_TIMEOUT_S = 5.0


def _now() -> float:
    """Scheduling clock (timeouts, backoff); never feeds results.

    The one sanctioned wall-clock read in the executor, so the
    determinism argument stays auditable at a single site.
    """
    # repro-lint: allow(determinism) -- scheduling clock, never results
    return time.monotonic()


def pools_created() -> int:
    """How many worker pools this process has spawned so far."""
    return _pools_created


def _env_workers() -> Optional[int]:
    """Validated ``REPRO_MAX_WORKERS`` cap, or ``None`` if unset/invalid.

    ``0`` and ``1`` are legitimate force-serial settings. Anything that
    is not a non-negative integer (``""``, ``"-3"``, ``"abc"``) warns
    once per distinct value (registry owned here, reset by the tests)
    and is treated as unset.
    """
    return config.env_nonneg_int(MAX_WORKERS_ENV, _warned_env_values)


def _machine_workers() -> int:
    """CPUs available to this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pool_size(processes: Optional[int]) -> int:
    """Workers a pool asked for ``processes`` (``None``: one per CPU)
    runs: at least 1, capped by ``REPRO_MAX_WORKERS``, and 1 inside a
    pool worker, which cannot fork its own."""
    if _in_worker:
        return 1
    if processes is None:
        processes = _machine_workers()
    env_cap = _env_workers()
    if env_cap is not None:
        # Global throttle: applies even over explicit per-call counts, so
        # a shared machine can be capped without touching call sites.
        processes = min(processes, env_cap)
    return max(1, processes)


def effective_workers(num_tasks: int,
                      processes: Optional[int] = None) -> int:
    """Worker-process count for ``num_tasks`` independent tasks.

    Args:
        num_tasks: number of independent evaluation points.
        processes: explicit worker count; ``None`` auto-sizes to the
            machine (capped by ``REPRO_MAX_WORKERS`` when set).

    Returns:
        at least 1; a return of 1 means "run serially, no pool".
    """
    if num_tasks <= 1:
        return 1
    return min(_pool_size(processes), num_tasks)


def _init_worker() -> None:
    """Pool-worker initializer: mark the child so nested sweeps run
    serially instead of forking grandchildren, and drop any shared-pool
    handle inherited from the parent (it is unusable across the fork)."""
    global _in_worker, _active_pool
    _in_worker = True
    _active_pool = None


def _reap_pool(pool: multiprocessing.pool.Pool,
               timeout_s: float = _REAP_TIMEOUT_S) -> bool:
    """Tear a (possibly degraded) pool down without blocking forever.

    ``Pool.terminate()`` ends with an *unbounded* ``join`` on every
    worker, and its inqueue-drain helper acquires a queue lock that a
    worker killed while idle may have died holding — either can wedge
    teardown for good. Instead, ``terminate()`` runs under a watchdog
    thread with a bounded wait; if it does not come back, every worker
    is SIGKILLed, the possibly dead-held queue lock is released from
    the parent (legal for SysV/POSIX semaphores), and teardown gets one
    more bounded wait. If it is *still* wedged the pool object is
    abandoned: its daemon handler threads leak, but every worker is
    already dead and the caller's pool handle is dropped — strictly
    better than hanging the run.

    Returns ``True`` on clean teardown, ``False`` when abandoned.
    """
    reaper = threading.Thread(target=pool.terminate, daemon=True,
                              name="repro-pool-reaper")
    reaper.start()
    reaper.join(timeout_s)
    if reaper.is_alive():
        for p in list(pool._pool):
            if p.is_alive():
                p.kill()
        try:
            pool._inqueue._rlock.release()
        except (ValueError, OSError):
            pass  # lock was not actually dead-held
        reaper.join(timeout_s)
    if reaper.is_alive():
        return False
    pool.join()
    return True


class WorkerPool:
    """Persistent worker pool shared across sweeps.

    Entering the context registers the pool process-wide; every sweep
    inside the block that needs workers dispatches onto it instead of
    spawning (and tearing down) its own pool. The OS pool is created
    *lazily* on first dispatch — a regeneration flow that ends up fully
    serial (one CPU, ``REPRO_MAX_WORKERS=1``) never forks at all.
    Worker processes persist across dispatches, so per-process memo
    caches (:func:`repro.experiments.common.latency_bound`) stay warm
    across drivers.

    Sizing follows :func:`effective_workers`: ``processes=None``
    auto-sizes to the machine, and ``REPRO_MAX_WORKERS`` caps either
    way. A failed sweep, an exception or a ``KeyboardInterrupt`` reaps
    the OS pool (a later dispatch lazily recreates it).
    """

    def __init__(self, processes: Optional[int] = None):
        self._requested = processes
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._outer: Optional["WorkerPool"] = None

    @property
    def size(self) -> int:
        """Worker count this pool runs (or would run) with."""
        return _pool_size(self._requested)

    @property
    def spawned(self) -> bool:
        """Whether the OS pool has actually been created."""
        return self._pool is not None

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        """The OS pool, creating it lazily on first use."""
        global _pools_created
        if self._pool is None:
            self._pool = multiprocessing.Pool(
                self.size, initializer=_init_worker)
            _pools_created += 1
        return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
            _policy: Optional["RetryPolicy"] = None,
            _stats: Optional["SweepStats"] = None) -> List[Any]:
        """``[fn(x) for x in items]`` on this pool, in input order.

        The entry of every pooled sweep (the repo benchmark times pool
        dispatches by wrapping it). Strict, unless the sweep functions
        below pass a policy and its stats through the private keywords.
        A size-1 pool or a single item runs in-process.
        """
        stats = _stats if _stats is not None else SweepStats()
        if self.size <= 1 or len(items) <= 1:
            return _serial_run(fn, items, _policy, stats)
        with tempfile.TemporaryDirectory(prefix="repro-cells-") as start:
            return _pooled_run(self, fn, items, _policy, stats, start)

    def ensure(self) -> "WorkerPool":
        """Force the lazy OS pool into existence (fork now)."""
        self._ensure_pool()
        return self

    def worker_status(self) -> List[Tuple[int, bool]]:
        """``[(pid, is_alive)]`` for the current workers ([] unspawned)."""
        if self._pool is None:
            return []
        return [(p.pid, p.is_alive()) for p in list(self._pool._pool)]

    def close(self) -> None:
        """Graceful shutdown: finish outstanding work, reap workers."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard shutdown: kill workers with a bounded reap (never blocks
        on a stuck child) and drop the handle, so the next dispatch
        lazily forks a fresh pool. Outstanding dispatches are lost."""
        if self._pool is not None:
            _reap_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        global _active_pool
        self._outer = _active_pool
        _active_pool = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active_pool
        _active_pool = self._outer
        self._outer = None
        if exc_type is None:
            self.close()
        else:
            self.terminate()


@contextlib.contextmanager
def shared_pool(processes: Optional[int] = None) -> Iterator[WorkerPool]:
    """The active :class:`WorkerPool`, creating one only if none exists.

    Drivers that issue several sweeps (``run_fig9``'s per-app sweeps,
    the figure ``main()``s) wrap themselves in this so a standalone run
    shares one pool internally, while a run under the regenerate-all
    CLI reuses the CLI's pool instead of nesting a second one.
    """
    if _active_pool is not None:
        yield _active_pool
    else:
        with WorkerPool(processes) as pool:
            yield pool


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Declarative knobs for :func:`resilient_map`.

    Attributes:
        max_retries: attempts after the first, per cell (0 = fail fast).
        timeout_s: per-cell soft timeout; ``None`` disables (serial
            execution never enforces it — there is no second process to
            keep the clock).
        backoff_s: base backoff before retry *k* (seconds); the actual
            sleep is ``backoff_s * 2**(k-1)`` scaled by a seeded jitter
            in ``[0.5, 1.5)`` — deterministic per (seed, cell, attempt).
        seed: backoff-jitter seed.
        max_pool_losses: pool rebuilds tolerated before degrading the
            remaining cells to serial in-process execution.
        poll_interval_s: parent poll cadence while cells are in flight.
        grace_s: after a loss/timeout is detected, how long surviving
            in-flight cells get to finish before being classified.
    """

    max_retries: int = 1
    timeout_s: Optional[float] = None
    backoff_s: float = 0.0
    seed: int = 0
    max_pool_losses: int = 3
    poll_interval_s: float = 0.02
    grace_s: float = 0.25

    def __post_init__(self) -> None:
        faults.check_finite(self, ValueError)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.max_pool_losses < 0:
            raise ValueError("max_pool_losses must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.grace_s < 0:
            raise ValueError("grace_s must be >= 0")

    def backoff_for(self, index: int, attempt: int) -> float:
        """Deterministic backoff before attempt ``attempt`` (1-based
        retry number) of cell ``index``."""
        if self.backoff_s <= 0 or attempt <= 0:
            return 0.0
        jitter = 0.5 + faults.unit_interval(self.seed, index, attempt)
        return self.backoff_s * (2 ** (attempt - 1)) * jitter


#: The knobs of a strict sweep (no policy): no retries, no timeout.
#: Strict sweeps also fire no cell hooks and stop at the first failure.
_STRICT = RetryPolicy(max_retries=0)


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """One cell's terminal failure, in the result slot its value would
    have occupied.

    Attributes:
        index: the cell's position in the input sequence.
        kind: ``"exception"`` (the cell raised), ``"timeout"`` (soft
            timeout expired), or ``"worker-lost"`` (its worker died).
        error: ``"ExcType: message"`` of the last failing attempt.
        traceback: remote traceback text ("" for timeout/worker-lost).
        attempts: total attempts charged to the cell.
    """

    index: int
    kind: str
    error: str
    traceback: str = ""
    attempts: int = 1

    def __str__(self) -> str:
        return (f"cell {self.index}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.error}")


@dataclasses.dataclass
class SweepStats:
    """Mutable counters one :func:`resilient_map` call fills in.

    Pass an instance in to observe what the executor had to do;
    ``test_fault_free_identical_to_parallel_map`` asserts all-zero on
    the fault-free path.
    """

    cells: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    worker_losses: int = 0
    pool_rebuilds: int = 0
    degraded_serial: bool = False


class SweepFailure(RuntimeError):
    """A sweep finished with at least one :class:`CellFailure`.

    Raised by :func:`repro.experiments.common.run_cells` *after*
    persisting every successful cell to the active artifact store, so a
    rerun resumes from the survivors and recomputes only the failures.
    """

    def __init__(self, driver: str, failures: Sequence[CellFailure],
                 total: int):
        self.driver = driver
        self.failures = tuple(failures)
        self.total = total
        super().__init__(
            f"{driver}: {len(self.failures)}/{total} cell(s) failed")

    def summary(self) -> str:
        lines = [str(self)]
        lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)


#: Innermost active policy (set by :func:`use_policy`).
_active_policy: Optional[RetryPolicy] = None


@contextlib.contextmanager
def use_policy(policy: RetryPolicy) -> Iterator[RetryPolicy]:
    """Make ``policy`` the active retry policy for the duration; the
    runner wraps ``regenerate`` in this so every driver's ``run_cells``
    runs under it without plumbing arguments through twelve driver
    modules."""
    global _active_policy
    outer = _active_policy
    _active_policy = policy
    try:
        yield policy
    finally:
        _active_policy = outer


def active_policy() -> Optional[RetryPolicy]:
    """The policy ``run_cells`` consults, or ``None`` (strict sweeps,
    exactly :func:`parallel_map`)."""
    return _active_policy


def _start_marker(start_dir: str, index: int, attempt: int,
                  pid: int) -> str:
    """Path of the marker attempt ``attempt`` of cell ``index`` leaves
    when it starts on worker ``pid``."""
    return os.path.join(start_dir, f"{index}.{attempt}.{pid}")


def _run_cell(payload: Tuple[Callable[[Any], Any], Any, int, int,
                             Optional[faults.FaultPlan],
                             Optional[str], bool]) -> Tuple:
    """Worker-side cell wrapper.

    Under a policy it never raises: it returns ``("ok", value)`` or
    ``("error", etype, message, traceback_text)`` — a picklable record
    either way, so the parent's loop distinguishes application failures
    from transport failures (lost workers) structurally. A strict cell
    (``strict=True``) fires no hooks and lets its exception propagate,
    so the sweep stops with the cell's own exception. Only
    ``Exception`` is recorded: a ``KeyboardInterrupt`` in an in-process
    cell stops the sweep instead of being retried.

    Fault hooks: the parent ships the resolved :class:`faults.FaultPlan`
    inside the payload and it is activated *fresh per cell* — pool
    workers may have been forked before the plan existed, and firing
    decisions must depend only on ``(seed, hook, cell index, attempt)``,
    never on which worker ran the cell. The process-level hooks
    (``worker.crash``/``worker.hang``) are gated on actually being in a
    pool worker: a serial (in-parent) run must never ``os._exit`` the
    driver itself. In-parent runs pass ``plan=None`` and rely on the
    ambient plan instead, so parent-side consult counters keep their
    activation-wide ``nth`` semantics.

    Pooled attempts also get ``start_dir``: before anything else runs,
    the worker creates an empty marker there naming (cell, attempt,
    own pid). A file is the one channel a pool forked before this sweep
    shares with the parent, and it lets the parent charge a worker's
    death to exactly the cells that started on it.
    """
    fn, item, index, attempt, plan, start_dir, strict = payload
    if start_dir is not None:
        with contextlib.suppress(OSError):
            open(_start_marker(start_dir, index, attempt, os.getpid()),
                 "w").close()
    if strict:
        return ("ok", fn(item))
    ctx = faults.activate(plan) if plan is not None \
        else contextlib.nullcontext()
    with ctx:
        try:
            if _in_worker:
                faults.maybe_inject("worker.crash", index=index,
                                    attempt=attempt)
                faults.maybe_inject("worker.hang", index=index,
                                    attempt=attempt)
            faults.maybe_inject("cell.raise", index=index, attempt=attempt)
            return ("ok", fn(item))
        except Exception as exc:
            return ("error", type(exc).__name__, str(exc),
                    traceback.format_exc())


def _outcome(record: Tuple, index: int, attempts: int):
    """Map a ``_run_cell`` record to ``(value, CellFailure | None)``."""
    if record[0] == "ok":
        return record[1], None
    _, etype, message, tb = record
    return None, CellFailure(index=index, kind="exception",
                             error=f"{etype}: {message}", traceback=tb,
                             attempts=attempts)


def _sleep_backoff(policy: RetryPolicy, index: int, attempt: int) -> None:
    delay = policy.backoff_for(index, attempt)
    if delay > 0:
        time.sleep(delay)


def _serial_run(fn: Callable[[Any], Any], items: Sequence[Any],
                policy: Optional[RetryPolicy], stats: SweepStats,
                indices: Optional[Sequence[int]] = None,
                results: Optional[List[Any]] = None) -> List[Any]:
    """In-process execution with retries (no timeout enforcement: there
    is no second process to keep the clock, and killing the parent is
    never an option). ``policy=None`` runs strict. Fills ``results`` at
    ``indices`` (default: a fresh list, cells numbered from 0)."""
    strict = policy is None
    policy = policy or _STRICT
    if indices is None:
        indices = range(len(items))
    if results is None:
        results = [None] * len(items)
    for index, item in zip(indices, items):
        attempt = 0
        while True:
            record = _run_cell((fn, item, index, attempt, None, None,
                                strict))
            value, failure = _outcome(record, index, attempt + 1)
            if failure is None:
                results[index] = value
                break
            if attempt < policy.max_retries:
                attempt += 1
                stats.retries += 1
                _sleep_backoff(policy, index, attempt)
                continue
            stats.failures += 1
            results[index] = failure
            break
    return results


@dataclasses.dataclass
class _InFlight:
    """Parent-side tracking for one dispatched cell attempt."""

    attempt: int
    deadline: Optional[float]

    @property
    def expired(self) -> bool:
        return self.deadline is not None and _now() > self.deadline


def _pooled_run(pool: WorkerPool, fn: Callable[[Any], Any],
                items: Sequence[Any], policy: Optional[RetryPolicy],
                stats: SweepStats, start_dir: str) -> List[Any]:
    """The per-cell loop: dispatch, retry, timeout and lost-worker
    handling on ``pool``. ``policy=None`` runs strict.

    The in-flight window is capped at ``pool.size`` so each dispatched
    cell starts immediately — its soft-timeout deadline is measured
    from dispatch, which only works when dispatch means "a worker
    picked it up", not "queued behind the whole sweep". Workers drop
    their start markers in ``start_dir``. Any exception that leaves the
    loop (a strict failure, an interrupt) reaps the pool first.
    """
    strict = policy is None
    policy = policy or _STRICT
    plan = None if strict else faults.active_plan()
    capacity = pool.size
    results: List[Any] = [None] * len(items)
    # (index, attempt, not_before) — cells awaiting dispatch; retries
    # carry their backoff as a not-before time so the loop keeps
    # servicing other cells while one waits out its backoff.
    pending: List[Tuple[int, int, float]] = [
        (i, 0, 0.0) for i in range(len(items))]
    in_flight: Dict[int, _InFlight] = {}
    # Finished attempts, fed by the pool's result thread: the loop
    # wakes as soon as a cell finishes instead of at its next poll.
    finished: "queue.SimpleQueue" = queue.SimpleQueue()
    pool_losses = 0
    # Pids observed in earlier polls. The pool's maintenance thread
    # *replaces* dead workers, so an instantaneous snapshot can look
    # perfectly healthy moments after a crash — a loss shows up as a
    # previously-seen pid that is now dead or gone entirely.
    seen_pids: set = set()

    def dispatch_ready() -> None:
        nonlocal pending
        if not pending:
            return
        # Fork the pool (if needed) and record its pids *before*
        # handing out work: a cell that kills its worker the instant it
        # runs must still show up as "a pid we saw is gone", even if
        # the pool's maintenance thread replaces the worker before the
        # next poll.
        os_pool = pool._ensure_pool()
        seen_pids.update(pid for pid, _ in pool.worker_status())
        now = _now()
        still: List[Tuple[int, int, float]] = []
        for index, attempt, not_before in pending:
            if len(in_flight) >= capacity or now < not_before:
                still.append((index, attempt, not_before))
                continue
            entry = _InFlight(attempt, None if policy.timeout_s is None
                              else _now() + policy.timeout_s)
            in_flight[index] = entry

            def done(value, ok=True, index=index, entry=entry):
                finished.put((index, entry, ok, value))

            os_pool.apply_async(
                _run_cell,
                ((fn, items[index], index, attempt, plan, start_dir,
                  strict),),
                callback=done,
                error_callback=lambda exc, done=done: done(exc, False))
        pending = still

    def charge(index: int, attempt: int, kind: str, *, error: str = "",
               tb: str = "") -> None:
        """Charge a failed attempt: requeue with backoff or finalize."""
        if attempt < policy.max_retries:
            stats.retries += 1
            not_before = _now() + policy.backoff_for(index, attempt + 1)
            pending.append((index, attempt + 1, not_before))
            return
        failure = CellFailure(
            index=index, kind=kind,
            error=error or f"cell {kind} (no result)", traceback=tb,
            attempts=attempt + 1)
        if strict:
            raise RuntimeError(str(failure))
        stats.failures += 1
        results[index] = failure

    def settle(index: int, entry: _InFlight, ok: bool, record: Any) -> None:
        """Consume one finished attempt: success, retry, or failure."""
        if in_flight.get(index) is not entry:
            return  # an attempt from a pool already classified and reaped
        del in_flight[index]
        if not ok:
            # A strict cell's own exception (remote traceback attached
            # as __cause__), or a result that could not be pickled.
            raise record
        value, failure = _outcome(record, index, entry.attempt + 1)
        if failure is None:
            results[index] = value
            return
        charge(index, entry.attempt, "exception",
               error=failure.error, tb=failure.traceback)

    def collect(timeout: float) -> None:
        """Settle every finished attempt, waiting up to ``timeout`` for
        the first one."""
        try:
            item = finished.get(timeout=timeout)
            while True:
                settle(*item)
                item = finished.get_nowait()
        except queue.Empty:
            pass

    try:
        while pending or in_flight:
            dispatch_ready()
            if not in_flight:
                # Everything pending is waiting out a backoff window.
                time.sleep(policy.poll_interval_s)
                continue
            collect(policy.poll_interval_s)

            status = pool.worker_status()
            current = {pid for pid, _ in status}
            lost_pids = {pid for pid, ok in status if not ok} | (
                seen_pids - current)
            seen_pids |= current
            expired = [i for i, e in in_flight.items() if e.expired]
            if not lost_pids and not expired:
                continue

            # A worker died and/or a cell blew its soft timeout. Give the
            # surviving in-flight cells a short grace window to finish,
            # then classify whatever is left and rebuild the pool — a hung
            # worker cannot be cancelled, and a dead worker's tasks are
            # gone; either way this OS pool is done.
            grace_end = _now() + policy.grace_s
            while in_flight and _now() < grace_end:
                collect(policy.poll_interval_s)
            collect(0.0)

            if lost_pids:
                stats.worker_losses += 1
            remaining = dict(in_flight)
            in_flight.clear()
            for index, entry in sorted(remaining.items()):
                if entry.expired:
                    stats.timeouts += 1
                    charge(index, entry.attempt, "timeout",
                           error=f"soft timeout after {policy.timeout_s}s")
                elif any(os.path.exists(_start_marker(
                        start_dir, index, entry.attempt, pid))
                        for pid in lost_pids):
                    charge(index, entry.attempt, "worker-lost",
                           error="pool worker died with cell in flight")
                else:
                    # Rebuild collateral — a neighbour's timeout or crash,
                    # not this cell's: requeue uncharged.
                    pending.append((index, entry.attempt, 0.0))
            stats.pool_rebuilds += 1
            pool_losses += 1
            pool.terminate()
            seen_pids.clear()

            if pool_losses > policy.max_pool_losses and pending:
                stats.degraded_serial = True
                rest = sorted(index for index, _, _ in pending)
                _serial_run(fn, [items[i] for i in rest],
                            None if strict else policy, stats,
                            rest, results)
                return results
    except BaseException:
        pool.terminate()
        raise
    return results


def _sweep(fn: Callable[[Any], Any], items: Sequence[Any],
           processes: Optional[int], policy: Optional[RetryPolicy],
           stats: SweepStats) -> List[Any]:
    """The one dispatcher behind :func:`parallel_map`,
    :func:`resilient_map` and :func:`map_cells`.

    Inside a :class:`WorkerPool` context the shared pool's size governs
    (an explicitly sized pool is used even where auto-sizing would pick
    serial); a per-call ``processes`` that forces serial is still
    honoured. Outside one, a pool of :func:`effective_workers` workers
    is opened for this sweep only.
    """
    workers = effective_workers(len(items), processes)
    if workers <= 1 and (processes is not None or _active_pool is None):
        return _serial_run(fn, items, policy, stats)
    with shared_pool(workers) as pool:
        return pool.map(fn, items, _policy=policy, _stats=stats)


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 processes: Optional[int] = None) -> List[Any]:
    """``[fn(x) for x in items]``, fanned out over worker processes.

    Results come back in input order regardless of completion order.
    Runs strict: the first failing cell stops the sweep and re-raises
    (see the module docstring), and no cell fault hook fires.

    Args:
        fn: module-level (picklable) worker.
        items: per-point argument values (typically small tuples).
        processes: explicit worker count; ``None`` auto-sizes.
    """
    return _sweep(fn, items, processes, None, SweepStats())


def resilient_map(fn: Callable[[Any], Any], items: Sequence[Any],
                  processes: Optional[int] = None,
                  policy: Optional[RetryPolicy] = None,
                  stats: Optional[SweepStats] = None) -> List[Any]:
    """``[fn(x) for x in items]`` that survives failing cells.

    Returns one entry per item in input order: the cell's value, or a
    :class:`CellFailure` describing how it terminally failed. Sizing,
    serial fallback and pool reuse are :func:`parallel_map`'s.

    Args:
        fn: module-level (picklable) cell worker.
        items: per-cell argument values.
        processes: explicit worker count; ``None`` auto-sizes.
        policy: retry/timeout knobs; ``None`` uses the active
            :func:`use_policy` policy, else ``RetryPolicy()`` defaults.
        stats: optional :class:`SweepStats` to fill in.
    """
    if policy is None:
        policy = active_policy() or RetryPolicy()
    if stats is None:
        stats = SweepStats()
    stats.cells += len(items)
    return _sweep(fn, items, processes, policy, stats)


def map_cells(fn: Callable[[Any], Any], items: Sequence[Any],
              processes: Optional[int] = None) -> List[Any]:
    """One sweep under the active :func:`use_policy` policy —
    :func:`resilient_map` inside a ``use_policy`` block, strict
    :func:`parallel_map` outside one (``run_cells``' dispatch)."""
    return _sweep(fn, items, processes, active_policy(), SweepStats())
