"""The names the repo benchmark (``perfbench/``) binds to stay in place.

``perfbench/tracing.py`` wraps ``WorkerPool.map`` to time pool
dispatches, reads ``TABLE_CACHE.stats()`` and rebinds the cell functions
it finds at ``run_cells``/``parallel_map`` call sites. A change to
``src/`` that drops one of those names breaks the traced benchmark run,
so this test runs a two-cell fig06 sweep, one fig09 cell and one fig16
cell under the tracer in a fresh process and checks the summary it
reports. Between them the cells run all three oracle searches, the
analytic replay, the colocated server and the datacenter fleet, so the
summary shows whether the tracer still reaches each of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core._native import build

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json, os, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import repro.experiments.runner  # noqa: F401 -- every driver, as perfbench
import tracing
from repro.perf import WorkerPool, pools_created
from repro.workloads.apps import MASSTREE

tracer = tracing.Tracer(Path(sys.argv[2]))
tracing.install(tracer)
# install rebinds module globals: look the cell function up afterwards.
from repro.experiments import common
from repro.experiments import fig09_load_sweep as fig09
from repro.experiments import fig16_datacenter as fig16

schemes = ("Rubik", "StaticOracle", "AdrenalineOracle")
items = [(MASSTREE, 0.3, seed, 300, schemes) for seed in (1, 2)]
before = pools_created()
t0 = tracing.now()
with WorkerPool(2):
    rows = common.run_cells("fig06", common._compare_seed, items)
    bound = common.latency_bound(MASSTREE, 21, 300)
    points = common.run_cells("fig09", fig09._sweep_point,
                              [(MASSTREE, 0.5, bound, 300, 21, 8)])
    datacenter = common.run_cells("fig16", fig16._fig16_point,
                                  [(0.3, 21, 1, 100)])
wall = tracing.now() - t0
assert len(rows) == 2 and len(points) == 1 and len(datacenter) == 1
assert pools_created() - before == 1
print(json.dumps(tracing.summarize(tracer.collect(), os.getpid(), wall, 2)))
"""


def test_traced_sweep_reports_every_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    for name in ("REPRO_MAX_WORKERS", "REPRO_ARTIFACT_CACHE",
                 "REPRO_FAULT_PLAN"):
        env.pop(name, None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["perf.dispatches"] >= 1
    assert metrics["experiments.cells"] == 4
    # One Rubik run per fig06 cell, Rubik and Rubik (No Feedback) in fig09's.
    assert metrics["sim.run_trace.calls"] == 4
    # Each names the path that served it: the span loop with the library.
    served = "native" if build.available() else "kernel"
    assert metrics[f"core.decision_path.{served}"] == 4
    assert metrics["core.decisions"] > 0
    assert metrics["share.sim"] > 0
    for layer in ("static_oracle", "adrenaline", "dynamic_oracle", "replay"):
        assert metrics[f"schemes.{layer}.calls"] >= 1, layer
    # fig16's cell: one fleet of 5 servers, one colocated run each.
    assert metrics["coloc.run.calls"] == 5
    assert metrics["fleet.datacenter.calls"] == 1
    assert metrics["fleet.servers"] == 5
