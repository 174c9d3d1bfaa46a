"""Performance subsystem: the sweep executor's public names.

Every experiment driver and the ``python -m repro.experiments``
regenerate-all CLI fan their cells out through :func:`parallel_map`
and a persistent shared :class:`WorkerPool`. Pool lifetime and the one
per-cell dispatch loop live in :mod:`repro.resilience.execution`, next
to the retry policy and fault hooks that loop hosts; this package
re-exports the names drivers and the repo benchmark import.

The hot-path *algorithmic* fast paths (cached histogram CDFs/FFTs,
per-row tail-table builds, the native decision kernel) live with their
subsystems under :mod:`repro.core`.
"""

from repro.resilience.execution import (
    WorkerPool,
    effective_workers,
    parallel_map,
    pools_created,
    shared_pool,
)

__all__ = ["WorkerPool", "effective_workers", "parallel_map",
           "pools_created", "shared_pool"]
