"""Deterministic fault-injection plane (see ``docs/robustness.md``).

Production serving stacks are only trusted after their failures can be
*injected* on demand and the degradation watched — the same argument
the paper makes for tail-latency disturbances. This module is the one
sanctioned source of injected faults in the repo: a seeded, declarative
:class:`FaultPlan` (a frozen dataclass, like
:class:`~repro.experiments.configs.DriverConfig`) names **hook points**
in library code and when each should fire. Library code consults the
plane through :func:`maybe_inject`; with no active plan every consult
is a no-op, so the hooks cost one module-global read on the happy path
and can never fire ambiently (the ``fault-gate`` lint rule enforces
that no other module injects faults ad hoc).

Hook points (the complete set — :func:`maybe_inject` rejects others):

* ``worker.crash``  — ``os._exit`` in a pool child: an abrupt,
  cleanup-free death, the shape of an OOM kill. Fired only inside a
  worker process (never the parent) by the resilient executor.
* ``worker.hang``   — a pool child sleeps far past any soft timeout
  (a stuck native call / livelocked child).
* ``cell.raise``    — raise :class:`InjectedFault` inside a cell's
  computation (an application-level error).
* ``native.load_fail``     — the native-kernel loader fails as if the
  build/CDLL step broke (exercises the warn-once Python fallback).
* ``artifact.corrupt_read`` — an artifact-store read observes corrupt
  bytes (exercises the warn-delete-recompute path).

Triggers are deterministic by construction. Each :class:`FaultSpec`
carries exactly one of:

* ``index`` — fire for the cell with that sweep index (cell-scoped
  hooks; the resilient executor passes each cell's index and attempt
  number, and the spec sabotages the first ``times`` attempts — so a
  retried cell deterministically recovers once the budget is spent);
* ``nth``   — fire on the nth..(nth+times-1)th consult of the hook
  within the current activation (parent-side hooks, whose consults
  happen in deterministic input order);
* ``p``     — per-consult probability, derived by hashing
  ``(plan.seed, hook, index, attempt, consult#)`` — no RNG object, no
  process-dependent state, bitwise-reproducible across reruns.

Activation is explicit and never ambient, mirroring the artifact
store: an :func:`activate` context, or the ``REPRO_FAULT_PLAN``
environment variable (validated with the shared warn-once helpers in
:mod:`repro.config`; an unparsable plan warns once per distinct value
and reads as no plan). Example::

    REPRO_FAULT_PLAN="seed=7;worker.crash@0:delay=0.3;cell.raise@3:times=9;worker.hang@5:times=9"

Grammar: ``;``-separated clauses; ``seed=N`` sets the plan seed; every
other clause is ``hook[@index][:key=value[,key=value...]]`` with keys
``nth``, ``p``, ``times``, ``delay``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import time
from typing import Dict, Iterator, Optional, Set, Tuple
import warnings

from repro import config

#: Environment variable holding a declarative fault-plan spec string.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The complete set of sanctioned hook points.
HOOKS: Tuple[str, ...] = (
    "worker.crash",
    "worker.hang",
    "cell.raise",
    "native.load_fail",
    "artifact.corrupt_read",
)

#: Exit code a ``worker.crash`` child dies with (visible in waitpid
#: status while debugging; any nonzero abrupt exit looks the same to
#: the pool).
CRASH_EXIT_CODE = 113

#: How long a ``worker.hang`` child sleeps — far past any soft timeout.
HANG_SLEEP_S = 3600.0

#: Invalid env values already warned about ((var, raw) — once each).
_warned_env_values: Set[Tuple[str, str]] = set()

#: Parsed env plans memoized per raw value (None = invalid/none).
_env_cache: Dict[str, Optional["FaultPlan"]] = {}

#: Innermost explicitly-activated plan (set by :func:`activate`).
_active_plan: Optional["FaultPlan"] = None

#: Per-activation consult counters: hook -> consults so far.
_counts: Dict[str, int] = {}

#: Per-activation fire counters: spec position in plan -> fires so far.
_fires: Dict[int, int] = {}


class FaultPlanError(ValueError):
    """A :class:`FaultSpec`/:class:`FaultPlan` failed validation."""


class InjectedFault(RuntimeError):
    """The exception a ``cell.raise`` / ``native.load_fail`` hook
    raises. Subclasses ``RuntimeError`` so existing graceful-fallback
    handlers (the native loader's) treat it like the real failure."""


def check_finite(obj: object, error: type = FaultPlanError) -> None:
    """Raise ``error`` naming the first NaN or infinite float field of
    dataclass ``obj`` (NaN slips past every ``<``/``>`` range check)."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{field.name} must be finite (got {value!r})")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault at one hook point with one deterministic trigger.

    Attributes:
        hook: one of :data:`HOOKS`.
        index: cell-index trigger — fire for this sweep index, on its
            first ``times`` attempts.
        nth: occurrence trigger — fire on consults ``nth`` through
            ``nth + times - 1`` of this hook (1-based, counted per
            activation per process).
        p: probability trigger — fire when the seeded hash of the
            consult's identity lands below ``p`` (at most ``times``
            fires per activation).
        times: how many attempts/consults the fault sabotages.
        delay_s: sleep this long before firing (lets tests order a
            crash after its sweep-mates completed).
    """

    hook: str
    index: Optional[int] = None
    nth: Optional[int] = None
    p: Optional[float] = None
    times: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.hook not in HOOKS:
            raise FaultPlanError(
                f"unknown fault hook {self.hook!r}; known: "
                + ", ".join(HOOKS))
        check_finite(self)
        triggers = [t for t in (self.index, self.nth, self.p)
                    if t is not None]
        if len(triggers) != 1:
            raise FaultPlanError(
                f"fault {self.hook!r} needs exactly one trigger among "
                "index/nth/p")
        if self.index is not None and self.index < 0:
            raise FaultPlanError("index trigger must be >= 0")
        if self.nth is not None and self.nth < 1:
            raise FaultPlanError("nth trigger is 1-based (must be >= 1)")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise FaultPlanError("p trigger must be in [0, 1]")
        if self.times < 1:
            raise FaultPlanError("times must be >= 1")
        if self.delay_s < 0:
            raise FaultPlanError("delay_s must be >= 0")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of faults to inject.

    Frozen and picklable: the resilient executor ships the active plan
    to pool workers inside each cell payload, so a child activates the
    identical plan with fresh per-cell state — firing decisions depend
    only on ``(seed, hook, cell index, attempt)``, never on which
    worker process happened to run the cell.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse the compact clause grammar (see module docstring)."""
        seed = 0
        specs = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise FaultPlanError(
                        f"invalid seed clause {clause!r}") from None
                continue
            head, _, opts = clause.partition(":")
            hook, _, at_index = head.partition("@")
            kwargs: Dict[str, object] = {}
            if at_index:
                try:
                    kwargs["index"] = int(at_index)
                except ValueError:
                    raise FaultPlanError(
                        f"invalid index in clause {clause!r}") from None
            if opts:
                for pair in opts.split(","):
                    key, sep, value = pair.partition("=")
                    key = key.strip()
                    if not sep or key not in ("nth", "p", "times", "delay"):
                        raise FaultPlanError(
                            f"invalid option {pair!r} in clause "
                            f"{clause!r} (known: nth, p, times, delay)")
                    try:
                        if key == "nth" or key == "times":
                            kwargs[key] = int(value)
                        elif key == "p":
                            kwargs["p"] = float(value)
                        else:
                            kwargs["delay_s"] = float(value)
                    except ValueError:
                        raise FaultPlanError(
                            f"invalid {key} value {value!r} in clause "
                            f"{clause!r}") from None
            specs.append(FaultSpec(hook.strip(), **kwargs))
        return FaultPlan(seed=seed, faults=tuple(specs))


def unit_interval(*key: object) -> float:
    """A deterministic value in ``[0, 1)`` derived from ``key``.

    Hash-based (SHA-256 over ``repr``), so it is identical across
    processes and interpreter runs — unlike ``hash()``, which is
    salted. Shared with the resilient executor's backoff jitter.
    """
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def env_plan() -> Optional[FaultPlan]:
    """The plan from ``REPRO_FAULT_PLAN``, or ``None``.

    Empty values warn once via the shared :func:`repro.config.env_str`
    gate; an unparsable plan warns once per distinct raw value (same
    contract) and reads as no plan. Parses are memoized per raw value.
    """
    raw = config.env_str(FAULT_PLAN_ENV, _warned_env_values)
    if raw is None:
        return None
    if raw not in _env_cache:
        try:
            _env_cache[raw] = FaultPlan.parse(raw)
        except FaultPlanError as exc:
            _env_cache[raw] = None
            key = (FAULT_PLAN_ENV, raw)
            if key not in _warned_env_values:
                _warned_env_values.add(key)
                warnings.warn(
                    f"ignoring invalid {FAULT_PLAN_ENV}={raw!r} ({exc})",
                    RuntimeWarning, stacklevel=3)
    return _env_cache[raw]


def active_plan() -> Optional[FaultPlan]:
    """The plan :func:`maybe_inject` consults, or ``None`` (all hooks
    no-op). An explicit :func:`activate` beats the environment."""
    if _active_plan is not None:
        return _active_plan
    return env_plan()


def _reset_state() -> None:
    _counts.clear()
    _fires.clear()


@contextlib.contextmanager
def activate(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Make ``plan`` the active plan (with fresh trigger state) for the
    duration of the block."""
    global _active_plan
    outer = _active_plan
    outer_counts = dict(_counts)
    outer_fires = dict(_fires)
    _active_plan = plan
    _reset_state()
    try:
        yield plan
    finally:
        _active_plan = outer
        _counts.clear()
        _counts.update(outer_counts)
        _fires.clear()
        _fires.update(outer_fires)


def should_fire(hook: str, *, index: Optional[int] = None,
                attempt: int = 0) -> Optional[FaultSpec]:
    """Consult the active plan: the spec to fire now, or ``None``.

    Every call counts as one consult of ``hook`` (for ``nth``
    triggers) — but only while a plan is active, so fault-free runs
    keep zero state.
    """
    if hook not in HOOKS:
        raise FaultPlanError(f"unknown fault hook {hook!r}")
    plan = active_plan()
    if plan is None:
        return None
    count = _counts[hook] = _counts.get(hook, 0) + 1
    for pos, spec in enumerate(plan.faults):
        if spec.hook != hook:
            continue
        if spec.index is not None:
            if index is not None and index == spec.index \
                    and attempt < spec.times:
                return spec
        elif spec.nth is not None:
            if spec.nth <= count < spec.nth + spec.times:
                return spec
        else:  # probability trigger
            if _fires.get(pos, 0) >= spec.times:
                continue
            draw = unit_interval(plan.seed, hook, index, attempt, count)
            if draw < spec.p:
                _fires[pos] = _fires.get(pos, 0) + 1
                return spec
    return None


def _fire(spec: FaultSpec, *, index: Optional[int] = None) -> None:
    """Execute one triggered fault. May not return (crash/hang)."""
    if spec.delay_s > 0:
        time.sleep(spec.delay_s)
    if spec.hook == "worker.crash":
        # Abrupt, cleanup-free death — the pool parent sees the child
        # vanish exactly as it would after an OOM kill.
        os._exit(CRASH_EXIT_CODE)
    if spec.hook == "worker.hang":
        time.sleep(HANG_SLEEP_S)
        return
    raise InjectedFault(
        f"injected {spec.hook}"
        + (f" at cell index {index}" if index is not None else ""))


def maybe_inject(hook: str, *, index: Optional[int] = None,
                 attempt: int = 0) -> None:
    """Consult the plane and fire when triggered; no-op without a plan.

    This is the only sanctioned way for library code to host a fault
    point (``fault-gate`` lint rule). ``worker.crash`` exits the
    process and ``worker.hang`` sleeps :data:`HANG_SLEEP_S`;
    the raising hooks raise :class:`InjectedFault`.
    """
    spec = should_fire(hook, index=index, attempt=attempt)
    if spec is not None:
        _fire(spec, index=index)


def _reset_for_tests() -> None:
    """Forget activation, trigger state, env memos, and warn-once
    registries (test isolation)."""
    global _active_plan
    _active_plan = None
    _reset_state()
    _env_cache.clear()
    _warned_env_values.clear()
