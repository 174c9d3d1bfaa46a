"""End-to-end benchmark of the Rubik reproduction.

    python3 perfbench/run.py --workload dvfs-sweep --seed 0 --seconds 45 \\
        --trace 0

Runs one named workload (see ``workloads.py`` and ``README.md``) from
outside the program, through public entry points only, and prints every
metric by name with its unit, the output checks, and, as the last line,
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each timed run is a fresh sweep process with a fresh worker pool, so
worker memos (``latency_bound``, the tail-table cache) start cold. Runs
repeat until ``--seconds`` have passed (at least ``MIN_RUNS``); the
metrics are medians. The native library is built before the first timed
run, so set-up measures its load, not its compile.

``--trace 0`` reports the end-to-end metrics: ``cpu_s`` (CPU seconds of
the sweep, its pool workers included, set-up excluded), ``setup_s`` (CPU
seconds of the sweep process from its start until the pool is up:
import, native library load, store open, pool spawn) and ``peak_rss_mb``
(largest resident set of the sweep process or a pool worker). CPU time,
not wall time: on a shared host, whether a sweep gets both CPUs or
shares one with another tenant doubles its wall but moves its CPU time
by about a tenth. The wall-clock twins ``wall_s`` and ``setup_wall_s``
are printed but left out of the JSON line. ``cell_fail_frac`` and
``claims_failed`` are printed too; they gate ``correct``, ``attempted``
and ``failed`` rather than appearing as metrics, because on a correct
tree both are 0.

``--trace 1`` adds one traced run, whose per-layer metrics (see
``tracing.py``) replace the end-to-end ones in the JSON line.

``--diagnostics`` (ungated) also prints the scaling curve, ``wall_s`` at
1..nproc workers for dvfs-sweep and coloc-sweep, and the traced run's
per-driver and per-layer shares of the wall.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS, savings_at_30, seed_offset

HERE = Path(__file__).resolve().parent

#: Pool size of every timed run: fixed, so runs compare across machines
#: and memory stays bounded (the program's CLI would use every CPU).
WORKERS = min(2, len(os.sched_getaffinity(0)))

#: Timed sweeps per invocation, at least (one fewer beside a traced run).
MIN_RUNS = 3

#: Set-ups measured per invocation, at least: timed sweeps plus
#: processes that only set up, so ``setup_s`` is a median of several
#: (single set-ups range over +-20% within one run).
SETUP_SAMPLES = 9

#: Seconds after start by which every child process must have ended;
#: one still running then is killed with its pool and the run fails
#: (the whole invocation must end within 180 s).
HARD_LIMIT_S = 170

#: The registered drivers, in registration order.
DRIVERS = ("fig01", "fig02", "fig06", "fig07_08", "fig09", "fig10",
           "fig11", "fig12", "fig15", "fig16", "table1", "ablations",
           "fleet")

END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Wall-clock twins of ``cpu_s`` and ``setup_s``: printed, never in the
#: JSON line, because on a shared host they measure the host's load.
WALL = (("wall_s", "s"), ("setup_wall_s", "s"))

PER_LAYER = tuple(
    [(f"experiments.driver_s.{d}", "s") for d in DRIVERS] + [
        ("experiments.cells", "count"),
        ("experiments.cell_p50_ms", "ms"),
        ("experiments.cell_p90_ms", "ms"),
        ("experiments.cell_max_ms", "ms"),
        ("experiments.latency_bound.calls", "count"),
        ("experiments.latency_bound.computed", "count"),
        ("experiments.latency_bound.self_s", "s"),
        ("artifacts.fingerprint.calls", "count"),
        ("artifacts.fingerprint.self_s", "s"),
        ("artifacts.get.calls", "count"),
        ("artifacts.get.hit_ratio", "ratio"),
        ("artifacts.get.self_s", "s"),
        ("artifacts.bytes_read", "B"),
        ("artifacts.put.calls", "count"),
        ("artifacts.put.self_s", "s"),
        ("artifacts.bytes_written", "B"),
        ("artifacts.worker_puts", "count"),
        ("artifacts.fill_s", "s"),
        ("perf.workers", "count"),
        ("perf.pools_created", "count"),
        ("perf.pool_spawn_s", "s"),
        ("perf.dispatches", "count"),
        ("perf.dispatch_s", "s"),
        ("perf.worker_busy_frac", "ratio"),
        ("sim.trace.calls", "count"),
        ("sim.trace.requests", "count"),
        ("sim.trace.self_s", "s"),
        ("sim.run_trace.calls", "count"),
        ("sim.run_trace.self_s", "s"),
        ("sim.run_trace.events", "count"),
        ("sim.run_trace.us_per_event", "us"),
        ("core.decision_path.native", "count"),
        ("core.decision_path.kernel", "count"),
        ("core.decision_path.vectorized", "count"),
        ("core.decisions", "count"),
        ("core.refresh.snapshots", "count"),
        ("core.table_cache.hits", "count"),
        ("core.table_cache.misses", "count"),
        ("core.table_cache.hit_ratio", "ratio"),
        ("core.native.load_s", "s"),
        ("schemes.replay.calls", "count"),
        ("schemes.replay.requests", "count"),
        ("schemes.replay.self_s", "s"),
        ("schemes.static_oracle.calls", "count"),
        ("schemes.static_oracle.self_s", "s"),
        ("schemes.adrenaline.calls", "count"),
        ("schemes.adrenaline.self_s", "s"),
        ("schemes.dynamic_oracle.calls", "count"),
        ("schemes.dynamic_oracle.self_s", "s"),
        ("coloc.run.calls", "count"),
        ("coloc.run.self_s", "s"),
        ("coloc.run.lc_requests", "count"),
        ("coloc.run.sim_s", "s"),
        ("coloc.hw_ticks", "count"),
        ("fleet.datacenter.calls", "count"),
        ("fleet.datacenter.self_s", "s"),
        ("fleet.servers", "count"),
        ("fleet.routed.calls", "count"),
        ("fleet.routed.self_s", "s"),
        ("setup.import_s", "s"),
        ("setup.native_s", "s"),
        ("setup.store_open_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
    ] + [(f"share.{layer}", "ratio") for layer in (
        "experiments", "artifacts", "perf", "sim", "schemes", "coloc",
        "fleet")])

#: Layer metrics that read 0 on every run of both gated workloads: they
#: measure the hand-run ones (warm-rerun's other drivers, store reads,
#: fill and fleet routing; rubik-fallback's Python decision paths).
#: Printed, but left out of the JSON line and ``BENCHMARK.json``.
UNGATED = frozenset(
    [f"experiments.driver_s.{d}" for d in DRIVERS
     if d not in ("fig06", "fig09", "fig15", "fig16")] + [
        "artifacts.get.hit_ratio", "artifacts.bytes_read",
        "artifacts.fill_s", "core.decision_path.kernel",
        "core.decision_path.vectorized", "fleet.routed.calls",
        "fleet.routed.self_s"])


class BenchError(RuntimeError):
    """The benchmark cannot record a run (exit code 2, no result)."""


class Bench:
    """One invocation's work directory, environment and child runs."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.offset = seed_offset(seed)
        self.work = root / ".perfbench-work" / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        # multiprocessing and the native build's fallback cache write
        # temp files: keep them inside the checkout.
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env
        self.start = time.monotonic()
        self.count = 0
        #: Store the sweeps replay from (warm-rerun), else a fresh one
        #: per sweep.
        self.warm_store: Optional[str] = None
        self._last_store: Optional[str] = None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    def child(self, mode: str, native: bool = True, **cfg: Any
              ) -> Dict[str, Any]:
        """Run one child process and return its JSON record."""
        self.count += 1
        out = self.work / f"rec-{self.count}.json"
        cfg.update(mode=mode, workload=self.name, offset=self.offset,
                   workers=cfg.get("workers", WORKERS), out=str(out))
        cfg_path = self.work / f"cfg-{self.count}.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(self.env)
        if not native:
            env["REPRO_NATIVE"] = "0"
        if "store" in cfg:
            env["REPRO_ARTIFACT_DIR"] = cfg["store"]
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        # A session of its own, so a timeout kills the pool workers too.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(cfg_path)],
            cwd=self.work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        left = HARD_LIMIT_S - (time.monotonic() - self.start)
        try:
            _, stderr = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} process still running "
                             f"{HARD_LIMIT_S} s into the run: killed")
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{mode} process failed "
                             f"(exit {proc.returncode}):\n{stderr}")
        rec = json.loads(out.read_text())
        if "t_ready" in rec:
            rec["setup_wall_s"] = rec["t_ready"] - t_spawn
        return rec

    def sweep(self, trace: bool = False, workers: int = WORKERS,
              setup_only: bool = False) -> Dict[str, Any]:
        """One timed sweep in a fresh process (on a fresh store, or the
        warm one), refused on the wrong platform."""
        cfg: Dict[str, Any] = {"trace": trace, "workers": workers,
                               "setup_only": setup_only}
        store = self.warm_store
        if self.workload.store:
            if store is None:
                if self._last_store:
                    shutil.rmtree(self._last_store, ignore_errors=True)
                store = self._last_store = str(
                    self.work / f"store-{self.count + 1}")
            cfg["store"] = store
        if trace:
            cfg["trace_dir"] = str(self.work / f"trace-{self.count + 1}")
            Path(cfg["trace_dir"]).mkdir()
        native = self.workload.native is not False
        before = _disk(store) if store else {}
        rec = self.child("sweep", native=native, **cfg)
        if store:
            # Counted on disk: fig16's nested fleet cells write to the
            # store from inside pool workers, past the sweep's own stats.
            written = [v for p, v in _disk(store).items()
                       if before.get(p) != v]
            rec["disk"] = {"written": len(written),
                           "bytes": sum(size for _, size in written)}
        if self.workload.native is not None \
                and rec["native"] != self.workload.native:
            raise BenchError(
                f"{self.name} needs the native library "
                f"{'loaded' if self.workload.native else 'disabled'}; "
                f"this run had it {'on' if rec['native'] else 'off'}: "
                "refusing to record")
        return rec


def _disk(root: str) -> Dict[str, tuple]:
    """Artifact files under a store root: path -> (mtime_ns, size)."""
    out = {}
    for path in Path(root).glob("*/*.pkl"):
        st = path.stat()
        out[str(path)] = (st.st_mtime_ns, st.st_size)
    return out


def _median(recs: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in recs)


def _layer_metrics(traced: Dict[str, Any], timed: List[Dict[str, Any]],
                   setups: List[Dict[str, Any]], fill_s: float
                   ) -> Dict[str, float]:
    m = dict(traced["layers"])
    disk = traced.get("disk", {"written": 0, "bytes": 0})
    puts = traced.get("store", {}).get("puts", 0)
    m.update({
        "artifacts.put.calls": disk["written"],
        "artifacts.bytes_written": disk["bytes"],
        "artifacts.worker_puts": disk["written"] - puts,
        "artifacts.fill_s": fill_s,
        "perf.workers": WORKERS,
        "perf.pools_created": traced["pools_created"],
        "perf.pool_spawn_s": _median(setups, "pool_spawn_s"),
        "core.native.load_s": _median(setups, "native_load_s"),
        "setup.import_s": _median(setups, "import_s"),
        "setup.native_s": _median(setups, "native_s"),
        "setup.store_open_s": _median(setups, "store_open_s"),
        "trace.overhead_frac":
            traced["wall_s"] / _median(timed, "wall_s") - 1.0,
    })
    return {name: float(m.get(name, 0.0)) for name, _ in PER_LAYER}


def _print_shares(layers: Dict[str, float]) -> None:
    wall = layers["trace.wall_s"]
    print(f"traced wall {wall:.3f} s; per-driver seconds:")
    for d in DRIVERS:
        sec = layers.get(f"experiments.driver_s.{d}", 0.0)
        if sec:
            print(f"  {d:<10} {sec:8.3f} s  {sec / wall:6.1%}")
    print("per-layer shares of the traced wall:")
    for name, value in sorted(layers.items()):
        if name.startswith("share."):
            print(f"  {name[6:]:<12} {value:6.1%}")
    print(f"  {'unattributed':<12} "
          f"{layers['trace.unattributed_s'] / wall:6.1%}")


def _diagnostics(bench: Bench, traced: Optional[Dict[str, Any]]) -> None:
    nproc = len(os.sched_getaffinity(0))
    if bench.name in ("dvfs-sweep", "coloc-sweep"):
        for workers in range(1, nproc + 1):
            rec = bench.sweep(workers=workers)
            print(f"scaling {bench.name} workers={workers} "
                  f"wall_s={rec['wall_s']:.3f}")
    if traced is None:
        traced = bench.sweep(trace=True)
    _print_shares(traced["layers"])


def run(args: argparse.Namespace, root: Path) -> Dict[str, Any]:
    bench = Bench(root, args.workload, args.seed)
    try:
        return _run(bench, args)
    finally:
        bench.close()


def _run(bench: Bench, args: argparse.Namespace) -> Dict[str, Any]:
    deadline = bench.start + args.seconds
    workload = bench.workload
    built = bench.child("build")
    prep = None
    if workload.prep is not None:
        cfg: Dict[str, Any] = {}
        if workload.store:
            # the sweeps replay what the preparation filled
            bench.warm_store = cfg["store"] = str(bench.work / "store-warm")
        prep = bench.child("prep", **cfg)
    fill_s = prep["wall_s"] if bench.warm_store else 0.0
    timed: List[Dict[str, Any]] = []
    min_runs = MIN_RUNS - 1 if args.trace else MIN_RUNS
    while True:
        t0 = time.monotonic()
        timed.append(bench.sweep())
        took = time.monotonic() - t0
        left = deadline - time.monotonic()
        if len(timed) >= min_runs and left < took * (2 if args.trace else 1):
            break
    setups = timed + [bench.sweep(setup_only=True)
                      for _ in range(SETUP_SAMPLES - len(timed))]
    traced = bench.sweep(trace=True) if args.trace else None
    runs = timed + ([traced] if traced else [])

    claims: Dict[str, bool] = {}
    details: Dict[str, str] = {}
    for rec in runs:
        if rec["error"] is not None:
            claims["every sweep ran without an error"] = False
            details["every sweep ran without an error"] = \
                rec["error"].strip().splitlines()[-1]
            continue
        for claim, ok, detail in workload.check(
                rec, prep["outputs"] if prep else None):
            claims[claim] = claims.get(claim, True) and ok
            details.setdefault(claim, detail)
    outputs = [json.dumps(r.get("outputs"), sort_keys=True) for r in runs]
    claims["every run produced identical outputs"] = len(set(outputs)) == 1
    attempted = sum(r["cells"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    claims_failed = sum(not ok for ok in claims.values())

    print(f"workload {bench.name}: seed offset {bench.offset}, "
          f"{len(timed)} timed runs, {WORKERS} workers, native "
          f"{'on' if timed[0]['native'] else 'off'} ({built['path']})")
    samples = {name: setups if name.startswith("setup") else timed
               for name, _ in END_TO_END + WALL}
    end_to_end = {name: _median(samples[name], name)
                  for name, _ in END_TO_END + WALL}
    for name, unit in END_TO_END + WALL:
        values = " ".join(f"{r[name]:.4f}" for r in samples[name])
        print(f"{name:<15} {end_to_end[name]:10.4f} {unit:<5} "
              f"(median of {values})")
    print(f"{'cell_fail_frac':<15} {failed / max(attempted, 1):10.4f} "
          f"ratio (failed {failed} of {attempted} cells)")
    print(f"{'claims_failed':<15} {claims_failed:10d} count "
          f"(of {len(claims)})")
    for claim, ok in claims.items():
        detail = f"  [{details[claim]}]" if details.get(claim) else ""
        print(f"  {'ok  ' if ok else 'FAIL'} {claim}{detail}")
    if bench.name == "dvfs-sweep" and timed[0]["error"] is None:
        print("ungated: per-app savings at 30% load (fig06)")
        for line in savings_at_30(timed[0]["outputs"]):
            print("  " + line)
    if prep is not None:
        print(f"untimed preparation: {prep['wall_s']:.3f} s")

    if args.trace:
        layers = _layer_metrics(traced, timed, setups, fill_s)
        for name, unit in PER_LAYER:
            print(f"{name:<38} {layers[name]:14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER if name not in UNGATED}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    if args.diagnostics:
        _diagnostics(bench, traced)
    return {"correct": claims_failed == 0 and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every driver seed (0: the drivers' "
                             "own seeds)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    parser.add_argument("--diagnostics", action="store_true",
                        help="also print the worker scaling curve and the "
                             "traced per-driver and per-layer shares")
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {root / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
