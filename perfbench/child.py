"""One benchmark process: build the native library, prepare a workload, or
set the program up and run one workload sweep once.

    python perfbench/child.py <config.json>

The config names the ``mode`` (``build``, ``prep`` or ``sweep``), the
workload, its seed offset, the pool size, the store directory and where
to write the JSON record. The record's ``t_ready`` (pool up) lets the
caller time set-up's wall from this process's spawn; ``import_s`` starts
at its first statement. The sweep's wall excludes set-up and pool
teardown; its ``cpu_s`` is the CPU time of this process during the sweep
plus that of every pool worker, and ``setup_s`` the CPU time of this
process until the pool is up.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def now() -> float:
    """CLOCK_MONOTONIC seconds, the clock ``tracing`` stamps spans with
    (not imported from there: set-up would then include the tracer's
    import)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _build() -> Dict[str, Any]:
    from repro.core._native import build
    path = build.ensure_built()
    return {"path": str(path)}


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _sweep(cfg: Dict[str, Any]) -> Dict[str, Any]:
    rec: Dict[str, Any] = {}
    workload = WORKLOADS[cfg["workload"]]
    import repro.experiments.runner  # noqa: F401 — every driver
    t_import = now()
    from repro.core import _native
    from repro.experiments import artifacts
    from repro.perf import WorkerPool, pools_created
    rec["native"] = _native.available()
    t_native = now()
    store = None
    if workload.store:
        store = artifacts.ArtifactStore(Path(cfg["store"]))
    t_store = now()
    tracer = None
    if cfg["trace"]:
        import tracing
        tracer = tracing.Tracer(Path(cfg["trace_dir"]))
        tracing.install(tracer)
    t_traced = now()

    span = tracer.span if tracer is not None else _untraced
    rec["error"] = None
    with contextlib.ExitStack() as stack:
        # As in ``regenerate``: the store is active before the pool
        # forks, so nested cells inside workers see it too.
        if store is not None:
            stack.enter_context(artifacts.activate(store))
        pool = stack.enter_context(WorkerPool(cfg["workers"]))
        pool.ensure()
        t_ready = now()
        cpu_ready = time.process_time()
        try:
            if not cfg.get("setup_only"):
                rec["outputs"] = workload.run(cfg["offset"], span)
        except Exception:  # noqa: BLE001 — reported as failed cells
            rec["error"] = traceback.format_exc()
        t_done = now()
        cpu_done = time.process_time()
    # The pool has been joined: its workers' CPU time is in RUSAGE_CHILDREN
    # (their fork and exit included, a few milliseconds). Set-up's CPU
    # time is this process's, from its fork until the pool is up.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    rec.update(
        cpu_s=cpu_done - cpu_ready + workers.ru_utime + workers.ru_stime,
        setup_s=cpu_ready)
    rec.update(
        t_ready=t_ready, import_s=t_import - T_START,
        native_s=t_native - t_import, store_open_s=t_store - t_native,
        pool_spawn_s=t_ready - t_traced, wall_s=t_done - t_ready,
        peak_rss_mb=_peak_rss_mb(), pools_created=pools_created(),
        native_load_s=_native.build_info()["build_seconds"] or 0.0)
    if store is not None:
        stats = store.stats()
        rec["store"] = {k: stats[k] for k in ("hits", "misses", "puts")}
        rec["cells"] = stats["hits"] + stats["misses"]
        rec["failed"] = stats["misses"] - stats["puts"]
    else:
        rec["cells"] = rec.get("outputs", {}).get("cells", 0)
        rec["failed"] = 0
    if rec["error"] is not None:
        rec["cells"] = max(rec["cells"], 1)
        rec["failed"] = max(rec["failed"], 1)
    if tracer is not None:
        rec["layers"] = tracing.summarize(
            tracer.collect(), os.getpid(), t_done - t_ready, cfg["workers"])
    return rec


def _untraced(driver: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def _prep(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.perf import WorkerPool
    workload = WORKLOADS[cfg["workload"]]
    t0 = now()
    with WorkerPool(cfg["workers"]):
        outputs = workload.prep(cfg["offset"], _untraced)
    return {"outputs": outputs, "wall_s": now() - t0}


def main(argv) -> int:
    cfg = json.loads(Path(argv[1]).read_text())
    mode = cfg["mode"]
    if mode == "build":
        rec = _build()
    elif mode == "prep":
        rec = _prep(cfg)
    else:
        rec = _sweep(cfg)
    Path(cfg["out"]).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
