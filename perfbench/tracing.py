"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer of ``repro`` from outside
the program: every wrapper records a span (name, start, end, parent span,
owning cell) and reads counts off the wrapped call's return value. Spans
stay in memory; pool workers write theirs to one file each when they exit,
and the sweep process merges them after its pool has closed.

Rules the wrappers follow:

* A name bound with ``from ... import`` is replaced in every ``repro``
  module that holds it, so the call is traced where it is looked up.
* ``Core`` and ``Simulator`` are never touched: the native span loop
  refuses a core with patched hooks, so a wrapper there would move runs
  off the fast path.
* ``functools.wraps`` keeps ``__module__`` and ``__qualname__``, so cell
  fingerprints (and pickling by reference) are unchanged.

Wall accounting: a sweep's wall is split into the self time of spans in
the sweep process, plus each pool dispatch's window shared among the
layers whose worker spans ran in it (self time divided by the pool
size); the idle part of a window goes to ``perf``. What no span covers is
the unattributed remainder, so the shares sum to the traced wall.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Layers that own spans, in report order (``core`` runs inside
#: ``run_trace``'s event loop and reports counts only).
SPAN_LAYERS = ("experiments", "artifacts", "perf", "sim", "schemes",
               "coloc", "fleet")

#: Callees whose function argument is a cell, and that argument's index.
_DISPATCHERS = {"run_cells": 1, "parallel_map": 0, "resilient_map": 0}


def now() -> float:
    """CLOCK_MONOTONIC seconds: one clock shared by every process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "cell", "attrs")

    def __init__(self, id_: int, parent: int, name: str, t0: float,
                 cell: int) -> None:
        self.id = id_
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.cell = cell
        self.attrs: Dict[str, Any] = {}

    def row(self) -> list:
        return [self.id, self.parent, self.name, self.t0, self.t1,
                self.cell, self.attrs]


def _table_cache_counts() -> Dict[str, int]:
    from repro.core.table_cache import TABLE_CACHE
    stats = TABLE_CACHE.stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.next_id = 1
        self.cache_base = _table_cache_counts()

    def _after_fork(self) -> None:
        # A pool worker starts with a copy of the parent's spans: drop
        # them and write this worker's own when it exits.
        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def open(self, name: str, is_cell: bool = False) -> Span:
        """Start a span; its owning cell is the outermost enclosing cell
        (a cell not nested in another owns itself)."""
        parent = self.stack[-1] if self.stack else None
        span = Span(self.next_id, parent.id if parent else 0, name, now(),
                    parent.cell if parent else 0)
        self.next_id += 1
        if is_cell and not span.cell:
            span.cell = span.id
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = now()
        self.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, driver: str) -> Iterator[None]:
        """A driver's span, recorded by the benchmark around its call."""
        span = self.open("experiments.driver." + driver)
        try:
            yield
        finally:
            self.close(span)

    def _payload(self) -> Dict[str, Any]:
        counts = _table_cache_counts()
        return {"pid": self.pid,
                "spans": [s.row() for s in self.spans],
                "table_cache": {k: counts[k] - self.cache_base[k]
                                for k in counts}}

    def flush(self) -> None:
        """Write this process's spans (pool workers, at exit)."""
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self._payload()))

    def collect(self) -> List[Dict[str, Any]]:
        """This process's spans plus every flushed worker file."""
        out = [self._payload()]
        for path in sorted(self.out_dir.glob("spans-*.json")):
            out.append(json.loads(path.read_text()))
        return out


def _wrap(tracer: Tracer, name: str, fn: Callable, is_cell: bool = False,
          count: Optional[Callable] = None,
          probe: Optional[Callable] = None) -> Callable:
    """``fn`` recording a span per call; ``count(attrs, call, result,
    before)`` reads counts off the result, with ``call`` the bound
    arguments and ``before = probe()``."""

    signature = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = probe() if probe is not None else None
        span = tracer.open(name, is_cell)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            call = signature.bind(*args, **kwargs).arguments
            count(span.attrs, call, result, before)
        return result

    return traced


def _cell_functions() -> List[Callable]:
    """Every module-level function a ``repro`` module hands to a cell
    dispatcher, found by reading the loaded modules' source."""
    found: Dict[int, Callable] = {}
    for mod_name, module in sorted(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if not mod_name.startswith("repro.") or not path \
                or not path.endswith(".py"):
            continue
        tree = ast.parse(Path(path).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.id if isinstance(node.func, ast.Name) else \
                getattr(node.func, "attr", None)
            idx = _DISPATCHERS.get(callee)
            if idx is None or len(node.args) <= idx \
                    or not isinstance(node.args[idx], ast.Name):
                continue
            fn = getattr(module, node.args[idx].id, None)
            if inspect.isfunction(fn):
                found[id(fn)] = fn
    return list(found.values())


def _rebind(originals: Dict[int, Callable]) -> None:
    """Replace every ``repro`` module binding of an original function
    with its wrapper (``originals``: ``id(original) -> wrapper``)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def _patch_method(cls: type, attr: str, wrap: Callable[[Callable], Callable]
                  ) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


# -- counts read off return values (attrs keys are metric names) -------


def _count_run_trace(attrs, call, result, before) -> None:
    from repro.core.controller import Rubik
    attrs["sim.run_trace.events"] = result.events_processed
    scheme = call["scheme"]
    if isinstance(scheme, Rubik):
        attrs["core.decision_path." + scheme.decision_path] = 1
        stats = scheme.kernel_stats
        attrs["core.decisions"] = stats.decisions if stats else 0
        attrs["core.refresh.snapshots"] = scheme.refresh_stats.snapshots


def _count_coloc(attrs, call, result, before) -> None:
    from repro.coloc.schemes import HW_SCHEME_PERIOD_S
    attrs["coloc.run.lc_requests"] = int(result.lc_response_times.size)
    attrs["coloc.run.sim_s"] = result.duration_s
    if result.scheme in ("HW-T", "HW-TPW"):
        attrs["coloc.hw_ticks"] = result.duration_s / HW_SCHEME_PERIOD_S


def _count_get(attrs, call, result, before) -> None:
    if result[0]:
        path = call["self"].path_for(call["driver"], call["fingerprint"])
        attrs["artifacts.get.hits"] = 1
        attrs["artifacts.bytes_read"] = path.stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every layer (after ``repro`` and all
    drivers are imported, before the pool forks)."""
    # Packages re-export some functions under their module's name, so
    # modules are fetched by dotted path.
    (coloc_server, artifacts, common, routing, shards, adrenaline,
     dynamic_oracle, replay, static_oracle, sim_server) = (
        importlib.import_module("repro." + name) for name in (
            "coloc.server", "experiments.artifacts", "experiments.common",
            "fleet.routing", "fleet.shards", "schemes.adrenaline",
            "schemes.dynamic_oracle", "schemes.replay",
            "schemes.static_oracle", "sim.server"))
    from repro.perf import WorkerPool
    from repro.sim.trace import Trace

    bound = common.latency_bound

    def count_bound(attrs, call, result, before):
        attrs["experiments.latency_bound.computed"] = \
            bound.cache_info().misses - before

    def count_replay(attrs, call, result, before):
        attrs["schemes.replay.requests"] = int(result.response_times.size)

    def count_fleet(attrs, call, result, before):
        attrs["fleet.servers"] = result.num_servers

    def count_trace(attrs, call, result, before):
        attrs["sim.trace.requests"] = len(result)

    functions = [
        (bound, "experiments.latency_bound", count_bound,
         lambda: bound.cache_info().misses),
        (artifacts.cell_fingerprint, "artifacts.fingerprint", None, None),
        (sim_server.run_trace, "sim.run_trace", _count_run_trace, None),
        (replay.replay, "schemes.replay", count_replay, None),
        (static_oracle.find_static_frequency, "schemes.static_oracle",
         None, None),
        (adrenaline.tune_adrenaline, "schemes.adrenaline", None, None),
        (dynamic_oracle.evaluate_dynamic_oracle, "schemes.dynamic_oracle",
         None, None),
        (coloc_server.run_colocated_server, "coloc.run", _count_coloc,
         None),
        (shards.run_datacenter_fleet, "fleet.datacenter", count_fleet,
         None),
        (routing.run_routed_fleet, "fleet.routed", None, None),
    ]
    originals: Dict[int, Callable] = {}
    for fn, name, count, probe in functions:
        originals[id(fn)] = _wrap(tracer, name, fn, count=count,
                                  probe=probe)
    for fn in _cell_functions():
        originals[id(fn)] = _wrap(tracer, "experiments.cell", fn,
                                  is_cell=True)
    _rebind(originals)

    _patch_method(Trace, "generate", lambda f: _wrap(
        tracer, "sim.trace", f, count=count_trace))
    _patch_method(artifacts.ArtifactStore, "get", lambda f: _wrap(
        tracer, "artifacts.get", f, count=_count_get))
    _patch_method(artifacts.ArtifactStore, "put", lambda f: _wrap(
        tracer, "artifacts.put", f))
    _patch_method(WorkerPool, "map", lambda f: _wrap(
        tracer, "perf.dispatch", f))


# -- aggregation -------------------------------------------------------


def _self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus its children's durations (within one
    process synchronous calls nest, so children never overlap)."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def _pct(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def summarize(processes: List[Dict[str, Any]], sweep_pid: int,
              wall: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep whose wall was ``wall``."""
    m: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    share = {layer: 0.0 for layer in SPAN_LAYERS}
    windows: List[list] = []   # pool dispatches: [t0, t1, worker busy s]
    worker_self: List[tuple] = []
    cell_ms: List[float] = []
    for proc in processes:
        spans = proc["spans"]
        own = _self_times(spans)
        parents = {s[1] for s in spans}
        in_sweep = proc["pid"] == sweep_pid
        add("core.table_cache.hits", proc["table_cache"]["hits"])
        add("core.table_cache.misses", proc["table_cache"]["misses"])
        for sid, parent, name, t0, t1, cell, attrs in spans:
            for key, value in attrs.items():
                add(key, value)
            if name.startswith("experiments.driver."):
                add("experiments.driver_s." + name.split(".", 2)[2],
                    t1 - t0)
            elif name == "experiments.cell":
                if cell == sid:  # dispatched, not nested in another cell
                    add("experiments.cells", 1)
                    cell_ms.append((t1 - t0) * 1e3)
            else:
                add(name + ".calls", 1)
                add(name + ".self_s", own[sid])
            layer = name.split(".")[0]
            if not in_sweep:
                worker_self.append((t0, t1, layer, own[sid]))
            elif name == "perf.dispatch" and sid not in parents:
                # cells ran in pool workers while the sweep waited
                windows.append([t0, t1, 0.0])
            else:
                share[layer] += own[sid]
    for t0, t1, layer, self_s in worker_self:
        for window in windows:
            if window[0] <= t0 and t1 <= window[1]:
                share[layer] += self_s / workers
                window[2] += self_s
                break
    capacity = sum((t1 - t0) * workers for t0, t1, _ in windows)
    busy = sum(b for _, _, b in windows)
    share["perf"] += max(0.0, capacity - busy) / workers
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(share.values())
    for layer in SPAN_LAYERS:
        m["share." + layer] = share[layer] / wall
    m.pop("perf.dispatch.calls", None)
    m.pop("perf.dispatch.self_s", None)
    m["perf.dispatches"] = len(windows)
    m["perf.dispatch_s"] = sum(t1 - t0 for t0, t1, _ in windows)
    m["perf.worker_busy_frac"] = busy / capacity if capacity else 0.0
    m["experiments.cell_p50_ms"] = _pct(cell_ms, 50)
    m["experiments.cell_p90_ms"] = _pct(cell_ms, 90)
    m["experiments.cell_max_ms"] = max(cell_ms, default=0.0)
    gets = m.get("artifacts.get.calls", 0.0)
    m["artifacts.get.hit_ratio"] = \
        m.pop("artifacts.get.hits", 0.0) / gets if gets else 0.0
    lookups = m["core.table_cache.hits"] + m["core.table_cache.misses"]
    m["core.table_cache.hit_ratio"] = \
        m["core.table_cache.hits"] / lookups if lookups else 0.0
    events = m.get("sim.run_trace.events", 0.0)
    m["sim.run_trace.us_per_event"] = \
        m.get("sim.run_trace.self_s", 0.0) / events * 1e6 if events else 0.0
    return m
