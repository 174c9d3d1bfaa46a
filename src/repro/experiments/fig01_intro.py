"""Fig. 1 — Rubik vs StaticOracle on masstree (the paper's teaser).

(a) Core energy per request at 30/40/50% load.
(b) Response to a load step from 30% to 50% at t = 1 s: input load,
    tail latency over a rolling 200 ms window, and Rubik's frequency
    choices over time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.tables import render_series, render_table
from repro.analysis.windows import windowed_series
from repro.core.controller import Rubik
from repro.experiments.common import make_context, run_cells
from repro.experiments.configs import CONFIGS
from repro.schemes.static_oracle import StaticOracle
from repro.sim.arrivals import LoadSchedule
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE

CONFIG = CONFIGS["fig01"]
LOADS = CONFIG.loads


@dataclasses.dataclass
class Fig1aResult:
    """Energy per request (mJ) for each scheme at each load."""

    loads: Tuple[float, ...]
    static_oracle_mj: List[float]
    rubik_mj: List[float]

    def table(self) -> str:
        rows = [
            (f"{ld:.0%}", s, r, 1.0 - r / s)
            for ld, s, r in zip(self.loads, self.static_oracle_mj,
                                self.rubik_mj)
        ]
        return render_table(
            ("Load", "StaticOracle mJ/req", "Rubik mJ/req", "Rubik saves"),
            rows, title="Fig. 1a: core energy per request (masstree)")


@dataclasses.dataclass
class Fig1bResult:
    """Load-step response traces."""

    window_times: np.ndarray
    static_tail_ms: np.ndarray
    rubik_window_times: np.ndarray
    rubik_tail_ms: np.ndarray
    freq_times: np.ndarray
    freq_ghz: np.ndarray
    bound_ms: float

    def table(self) -> str:
        lines = [
            "Fig. 1b: masstree load step 30% -> 50% at t=1s "
            f"(bound {self.bound_ms:.3f} ms)",
            render_series("StaticOracle tail (ms) vs t",
                          self.window_times, self.static_tail_ms),
            render_series("Rubik tail (ms) vs t",
                          self.rubik_window_times, self.rubik_tail_ms),
        ]
        return "\n".join(lines)


def _fig1a_point(args) -> Tuple[float, float]:
    """One load of the Fig. 1a comparison (module-level so the parallel
    sweep executor can fan loads out across worker processes)."""
    load, num_requests, seed = args
    app = MASSTREE
    context = make_context(app, seed, num_requests)
    trace = Trace.generate_at_load(app, load, num_requests, seed)
    static_res = StaticOracle().evaluate(trace, context)
    rubik_res = run_trace(trace, Rubik(), context)
    return (static_res.energy_per_request_j * 1e3,
            rubik_res.energy_per_request_j * 1e3)


def run_fig1a(num_requests: Optional[int] = None, seed: int = 21,
              processes: Optional[int] = None) -> Fig1aResult:
    """Energy-per-request comparison (Fig. 1a).

    The per-load points are independent and fan out over
    :func:`repro.perf.parallel_map` (bitwise-identical to the serial
    loop; pinned in ``tests/experiments/test_runner_equivalence.py``).
    """
    rows = run_cells("fig01", _fig1a_point,
                     [(load, num_requests, seed) for load in LOADS],
                     processes=processes)
    return Fig1aResult(LOADS, [r[0] for r in rows], [r[1] for r in rows])


def run_fig1b(num_requests: int = 6000, seed: int = 21,
              step_time_s: float = 1.0,
              total_time_s: float = 2.0) -> Fig1bResult:
    """Load-step response (Fig. 1b).

    StaticOracle is tuned for the pre-step (30%) load, as a feedback
    controller would have settled there; Rubik adapts by itself.
    """
    app = MASSTREE
    context = make_context(app, seed, num_requests)
    schedule = LoadSchedule.from_loads(
        [(0.0, 0.3), (step_time_s, 0.5)], app.saturation_qps)
    trace = Trace.generate(app, schedule, num_requests, seed)

    # StaticOracle tuned on a 30%-only trace of the same length.
    pre_step = Trace.generate_at_load(app, 0.3, num_requests, seed)
    static = StaticOracle()
    static.tune(pre_step, context)
    static_run = run_trace(trace, static, context)

    rubik = Rubik()
    # Fig. 1b plots Rubik's frequency trace, so opt into history.
    rubik_run = run_trace(trace, rubik, context, record_freq_history=True)

    def tail_series(run) -> Tuple[np.ndarray, np.ndarray]:
        finish = run.completions.finish
        lats = run.response_times(include_warmup=True)
        keep = finish <= total_time_s
        return windowed_series(finish[keep], lats[keep],
                               window_s=0.2, step_s=0.05)

    st, sv = tail_series(static_run)
    rt, rv = tail_series(rubik_run)
    freq_t = np.array([t for t, _ in rubik_run.freq_history])
    freq_f = np.array([f for _, f in rubik_run.freq_history])
    keep = freq_t <= total_time_s
    return Fig1bResult(
        window_times=st,
        static_tail_ms=sv * 1e3,
        rubik_window_times=rt,
        rubik_tail_ms=rv * 1e3,
        freq_times=freq_t[keep],
        freq_ghz=freq_f[keep] / 1e9,
        bound_ms=context.latency_bound_s * 1e3,
    )


def _fig1b_cell(args) -> Fig1bResult:
    """Fig. 1b as a single cell (module-level, picklable result)."""
    num_requests, seed = args
    return run_fig1b(num_requests, seed)


def main(num_requests: Optional[int] = None) -> str:
    """Run both panels and return the formatted report."""
    fig1b_requests = num_requests or CONFIG.extra("fig1b_requests")
    (fig1b,) = run_cells("fig01", _fig1b_cell, [(fig1b_requests, 21)])
    parts = [run_fig1a(num_requests).table(), fig1b.table()]
    report = "\n\n".join(parts)
    print(report)
    return report


if __name__ == "__main__":
    main()
