"""Deterministic fault injection + resilient sweep execution.

Two halves (see ``docs/robustness.md``):

* :mod:`repro.resilience.faults` — the sanctioned fault-injection
  plane: a seeded, declarative :class:`FaultPlan` firing at named hook
  points, activated explicitly (:func:`activate` context or the
  ``REPRO_FAULT_PLAN`` environment gate), never ambient.
* :mod:`repro.resilience.execution` — the sweep executor: the shared
  worker pool and the one per-cell loop behind ``parallel_map``
  (strict: the first failure raises) and :func:`resilient_map`
  (per-cell retry, soft timeouts, crashed/hung-worker recovery, serial
  degradation), plus the :class:`RetryPolicy`/:class:`CellFailure`/
  :class:`SweepFailure` vocabulary ``run_cells`` and the runner CLI
  speak.
"""

from repro.resilience.execution import (
    CellFailure,
    RetryPolicy,
    SweepFailure,
    SweepStats,
    active_policy,
    resilient_map,
    use_policy,
)
from repro.resilience.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    HOOKS,
    InjectedFault,
    activate,
    active_plan,
    maybe_inject,
    should_fire,
    unit_interval,
)

__all__ = [
    "CellFailure",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "HOOKS",
    "InjectedFault",
    "RetryPolicy",
    "SweepFailure",
    "SweepStats",
    "activate",
    "active_plan",
    "active_policy",
    "maybe_inject",
    "resilient_map",
    "should_fire",
    "unit_interval",
    "use_policy",
]
