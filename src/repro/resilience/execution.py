"""Resilient sweep execution: per-cell retry, soft timeout, and
crashed-worker recovery (see ``docs/robustness.md``).

:func:`resilient_map` is the hardened sibling of
:func:`repro.perf.parallel_map`: the same "list of independent cells
in, list of results in input order out" contract, but one failing cell
no longer aborts the sweep. Instead of one ``map`` batch, every cell is
dispatched as its own :meth:`repro.perf.WorkerPool.submit` handle
wrapped in :func:`_run_cell`, which converts worker-side exceptions
into picklable ``("error", ...)`` records (and hosts the cell-scoped
fault hooks). The parent polls the handles and worker liveness, and:

* a cell **exception** is retried up to ``max_retries`` times with
  deterministic seeded backoff, then surfaces as a :class:`CellFailure`
  carrying the remote traceback — the sweep's other cells complete;
* a cell exceeding the **soft timeout** is charged a failed attempt;
  the pool is rebuilt (a hung worker cannot be cancelled, only its
  pool discarded) and unexpired in-flight cells are re-dispatched
  *uncharged*;
* a **lost worker** (SIGKILL, OOM, ``os._exit``) is detected by pid
  liveness. Each pooled attempt drops a start marker naming its
  worker's pid, so only the cells that started on a dead pid are
  charged a ``worker-lost`` attempt; unfinished neighbours on live
  workers are re-dispatched uncharged, and the pool is rebuilt;
* after ``max_pool_losses`` rebuilds the sweep **degrades to serial**
  in-process execution for the remaining cells — forward progress over
  parallelism.

Determinism: cell *values* never depend on scheduling. Retries re-run
the same pure cell function, backoff is seeded (hash-derived, no RNG
state), and the only wall-clock reads feed scheduling decisions
(timeouts), never results. A fault-free ``resilient_map`` returns
bitwise-identical values to ``parallel_map`` (guarded by the
resilience bench smoke).

Serial execution (one CPU, ``processes=1``, degraded mode) retries and
injects ``cell.raise`` identically, but cannot enforce timeouts or
survive ``worker.crash``/``worker.hang`` — those two hooks only fire
inside pool workers, so a serial run never kills its own process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
import time
import traceback
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.perf import parallel
from repro.resilience import faults


def _now() -> float:
    """Scheduling clock (timeouts, backoff); never feeds results.

    The one sanctioned wall-clock read in the executor, so the
    determinism argument stays auditable at a single site.
    """
    # repro-lint: allow(determinism) -- scheduling clock, never results
    return time.monotonic()


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

    Pass an instance in to observe what the executor had to do; the
    bench resilience smoke asserts all-zero on the fault-free path.
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
    routes through :func:`resilient_map` without plumbing arguments
    through twelve driver modules."""
    global _active_policy
    outer = _active_policy
    _active_policy = policy
    try:
        yield policy
    finally:
        _active_policy = outer


def active_policy() -> Optional[RetryPolicy]:
    """The policy ``run_cells`` consults, or ``None`` (plain
    ``parallel_map`` semantics, bitwise-pinned)."""
    return _active_policy


def _start_marker(start_dir: str, index: int, attempt: int,
                  pid: int) -> str:
    """Path of the marker attempt ``attempt`` of cell ``index`` leaves
    when it starts on worker ``pid``."""
    return os.path.join(start_dir, f"{index}.{attempt}.{pid}")


def _run_cell(payload: Tuple[Callable[[Any], Any], Any, int, int,
                             Optional[faults.FaultPlan],
                             Optional[str]]) -> Tuple:
    """Worker-side cell wrapper: run one cell, never raise.

    Returns ``("ok", value)`` or ``("error", etype, message,
    traceback_text)`` — a picklable record either way, so the parent's
    polling loop distinguishes application failures from transport
    failures (lost workers) structurally.

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
    fn, item, index, attempt, plan, start_dir = payload
    if start_dir is not None:
        with contextlib.suppress(OSError):
            open(_start_marker(start_dir, index, attempt, os.getpid()),
                 "w").close()
    ctx = faults.activate(plan) if plan is not None \
        else contextlib.nullcontext()
    with ctx:
        try:
            if parallel._in_worker:
                faults.maybe_inject("worker.crash", index=index,
                                    attempt=attempt)
                faults.maybe_inject("worker.hang", index=index,
                                    attempt=attempt)
            faults.maybe_inject("cell.raise", index=index, attempt=attempt)
            return ("ok", fn(item))
        except BaseException as exc:
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
                indices: Sequence[int], policy: RetryPolicy,
                stats: SweepStats, results: List[Any]) -> None:
    """In-process execution with retries (no timeout enforcement: there
    is no second process to keep the clock, and killing the parent is
    never an option). Fills ``results`` at ``indices``."""
    for index, item in zip(indices, items):
        attempt = 0
        while True:
            record = _run_cell((fn, item, index, attempt, None, None))
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


@dataclasses.dataclass
class _InFlight:
    """Parent-side tracking for one dispatched cell attempt."""

    handle: Any
    attempt: int
    deadline: Optional[float]

    @property
    def expired(self) -> bool:
        return self.deadline is not None and _now() > self.deadline


def _pooled_run(fn: Callable[[Any], Any], items: Sequence[Any],
                pool: "parallel.WorkerPool", policy: RetryPolicy,
                stats: SweepStats, results: List[Any],
                start_dir: str) -> None:
    """Polled per-cell dispatch with retry/timeout/lost-worker handling.

    The in-flight window is capped at ``pool.size`` so each dispatched
    cell starts immediately — its soft-timeout deadline is measured
    from dispatch, which only works when dispatch means "a worker
    picked it up", not "queued behind the whole sweep". Workers drop
    their start markers in ``start_dir``.
    """
    plan = faults.active_plan()
    # (index, attempt, not_before) — cells awaiting dispatch; retries
    # carry their backoff as a not-before time so the poll loop keeps
    # servicing other cells while one waits out its backoff.
    pending: List[Tuple[int, int, float]] = [
        (i, 0, 0.0) for i in range(len(items))]
    in_flight: Dict[int, _InFlight] = {}
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
        pool.ensure()
        seen_pids.update(pid for pid, _ in pool.worker_status())
        now = _now()
        still: List[Tuple[int, int, float]] = []
        for index, attempt, not_before in pending:
            if len(in_flight) >= pool.size or now < not_before:
                still.append((index, attempt, not_before))
                continue
            handle = pool.submit(
                _run_cell,
                (fn, items[index], index, attempt, plan, start_dir))
            deadline = (None if policy.timeout_s is None
                        else _now() + policy.timeout_s)
            in_flight[index] = _InFlight(handle, attempt, deadline)
        pending = still

    def settle(index: int, entry: _InFlight) -> None:
        """Consume one ready handle: success, retry, or failure."""
        record = entry.handle.get()
        value, failure = _outcome(record, index, entry.attempt + 1)
        if failure is None:
            results[index] = value
            return
        charge(index, entry.attempt, "exception",
               error=failure.error, tb=failure.traceback)

    def charge(index: int, attempt: int, kind: str, *, error: str = "",
               tb: str = "") -> None:
        """Charge a failed attempt: requeue with backoff or finalize."""
        if attempt < policy.max_retries:
            stats.retries += 1
            not_before = _now() + policy.backoff_for(index, attempt + 1)
            pending.append((index, attempt + 1, not_before))
            return
        stats.failures += 1
        results[index] = CellFailure(
            index=index, kind=kind,
            error=error or f"cell {kind} (no result)", traceback=tb,
            attempts=attempt + 1)

    def collect_ready() -> None:
        for index in sorted(in_flight):
            entry = in_flight[index]
            if entry.handle.ready():
                del in_flight[index]
                settle(index, entry)

    while pending or in_flight:
        dispatch_ready()
        if not in_flight:
            # Everything pending is waiting out a backoff window.
            time.sleep(policy.poll_interval_s)
            continue
        time.sleep(policy.poll_interval_s)
        collect_ready()

        status = pool.worker_status()
        current = {pid for pid, _ in status}
        lost_pids = {pid for pid, ok in status if not ok} | (
            seen_pids - current)
        seen_pids |= current
        expired = [i for i, e in in_flight.items() if e.expired]
        if not lost_pids and not expired:
            continue

        # A worker died and/or a cell blew its soft timeout. Give the
        # surviving in-flight cells a short grace window to finish, then
        # classify whatever is left and rebuild the pool — a hung worker
        # cannot be cancelled, and a dead worker's tasks are gone;
        # either way this OS pool is done.
        grace_end = _now() + policy.grace_s
        while in_flight and _now() < grace_end:
            time.sleep(policy.poll_interval_s)
            collect_ready()

        if lost_pids:
            stats.worker_losses += 1
        remaining = dict(in_flight)
        in_flight.clear()
        for index, entry in sorted(remaining.items()):
            if entry.handle.ready():
                settle(index, entry)
            elif entry.expired:
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
        pool.rebuild()
        seen_pids.clear()

        if pool_losses > policy.max_pool_losses and (pending or in_flight):
            stats.degraded_serial = True
            rest = sorted(index for index, _, _ in pending)
            _serial_run(fn, [items[i] for i in rest], rest, policy,
                        stats, results)
            return


def resilient_map(fn: Callable[[Any], Any], items: Sequence[Any],
                  processes: Optional[int] = None,
                  policy: Optional[RetryPolicy] = None,
                  stats: Optional[SweepStats] = None) -> List[Any]:
    """``[fn(x) for x in items]`` that survives failing cells.

    Returns one entry per item in input order: the cell's value, or a
    :class:`CellFailure` describing how it terminally failed. Sizing
    and serial fallback follow :func:`repro.perf.effective_workers`
    exactly; inside a :class:`repro.perf.WorkerPool` context the shared
    pool is reused (and rebuilt in place after a loss).

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
    results: List[Any] = [None] * len(items)
    if not items:
        return results
    workers = parallel.effective_workers(len(items), processes)
    if workers <= 1:
        _serial_run(fn, items, list(range(len(items))), policy, stats,
                    results)
        return results
    with parallel.shared_pool(processes) as pool:
        if pool.size <= 1:
            _serial_run(fn, items, list(range(len(items))), policy,
                        stats, results)
        else:
            with tempfile.TemporaryDirectory(
                    prefix="repro-cells-") as start_dir:
                _pooled_run(fn, items, pool, policy, stats, results,
                            start_dir)
    return results
