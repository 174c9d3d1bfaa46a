"""Scheme interface: how power-management policies plug into the core.

A scheme observes request arrivals and completions (the same events Rubik
uses, Fig. 3) and drives the core's DVFS domain. Schemes also receive a
:class:`SchemeContext` carrying the run's latency bound and machine
configuration, and may register periodic timers through the simulator
(used by Pegasus-style feedback and the HW colocation schemes).
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Optional, Sequence

from repro.config import DEFAULT_DVFS, TAIL_PERCENTILE, DvfsConfig
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request
from repro.workloads.base import AppProfile


#: The hooks the core calls on every event (CoreListener protocol).
EVENT_HOOKS = ("on_arrival", "on_completion")


def overrides(scheme: "Scheme", base: type,
              hooks: Sequence[str] = EVENT_HOOKS) -> bool:
    """Whether ``scheme``'s class replaces any of ``base``'s ``hooks``:
    a native event loop stands in for ``base``'s hooks only."""
    cls = type(scheme)
    return any(getattr(cls, hook) is not getattr(base, hook)
               for hook in hooks)


def check_bound(bound_s: float) -> float:
    """``bound_s`` if it is a usable latency bound, else a ``ValueError``
    naming it: finite and > 0 (a NaN bound passes every ``<=``/``>``
    check, and the oracles would each read it differently)."""
    if not (math.isfinite(bound_s) and bound_s > 0):
        raise ValueError(
            f"latency bound must be finite and > 0, got {bound_s!r}")
    return bound_s


@dataclasses.dataclass
class SchemeContext:
    """Run parameters shared with the active scheme.

    Attributes:
        latency_bound_s: the tail-latency target ``L`` (paper: tail latency
            of the fixed-frequency scheme at 50% load).
        tail_percentile: the percentile the bound applies to (95th).
        dvfs: frequency grid and transition latency.
        app: the application being served, when known (oracles use its
            profile; Rubik must not — it is application-agnostic).
    """

    latency_bound_s: float
    tail_percentile: float = TAIL_PERCENTILE
    dvfs: DvfsConfig = DEFAULT_DVFS
    app: Optional[AppProfile] = None

    def __post_init__(self) -> None:
        check_bound(self.latency_bound_s)
        if not 0.0 < self.tail_percentile < 100.0:
            raise ValueError("tail percentile must be in (0, 100)")

    @property
    def tail_quantile(self) -> float:
        """Tail percentile as a fraction in (0, 1)."""
        return self.tail_percentile / 100.0


class Scheme(abc.ABC):
    """A DVFS policy driving one core."""

    #: Human-readable scheme name (used in tables).
    name: str = "scheme"

    def setup(self, sim: Simulator, core: Core, context: SchemeContext) -> None:
        """Bind to a core before the run starts.

        Subclasses that override this must call ``super().setup(...)``.
        The default registers the scheme for arrival/completion events and
        applies :meth:`initial_frequency`.
        """
        self.sim = sim
        self.core = core
        self.context = context
        core.add_listener(self)
        core.dvfs.request(self.initial_frequency())

    def initial_frequency(self) -> float:
        """Frequency to start the run at (defaults to nominal)."""
        return self.context.dvfs.nominal_hz

    def native_session(self, sim: Simulator, core: Core, trace):
        """Optional whole-run native event loop for this scheme.

        Called by :func:`repro.sim.server.serve` after :meth:`setup`;
        a non-None return value takes over the entire event loop (see
        :class:`repro.core._native.session.NativeRunSession`). The
        default — any scheme without a native port — returns None and
        the Python event loop runs as always.
        """
        return None

    # Event hooks (CoreListener protocol) -------------------------------
    def on_arrival(self, core: Core, request: Request) -> None:
        """Called after ``request`` was admitted (queued or in service)."""

    def on_completion(self, core: Core, request: Request) -> None:
        """Called after ``request`` finished and the next one started."""
