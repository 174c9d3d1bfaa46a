"""Fig. 10 — responsiveness to sudden load changes (paper Sec. 5.4).

Input load steps 25% -> 50% -> 75% over 12 seconds (steps at t=4s and
t=8s). For StaticOracle, AdrenalineOracle and Rubik we report tail latency
and active power over a rolling 200 ms window, plus Rubik's frequency
choices. The oracles are tuned for the *initial* (25%) load, as slow
controllers would be when the step hits — the paper's point is that they
under-provision after the step while Rubik adapts instantly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import render_series
from repro.analysis.windows import windowed_series
from repro.core.controller import Rubik
from repro.experiments.common import make_context, run_cells, training_traces
from repro.experiments.configs import CONFIGS
from repro.schemes.adrenaline import AdrenalineOracle
from repro.schemes.base import Scheme
from repro.schemes.static_oracle import StaticOracle
from repro.sim.arrivals import LoadSchedule
from repro.sim.server import RunResult, run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import APPS, app_names

CONFIG = CONFIGS["fig10"]
#: Load fractions of the three phases (steps at T/3 and 2T/3).
STEP_FRACTIONS = CONFIG.extra("step_fractions")
TOTAL_TIME_S = CONFIG.extra("total_time_s")
WINDOW_S = 0.2


@dataclasses.dataclass
class StepResponseResult:
    """Rolling tail/power traces per scheme for one app."""

    app: str
    bound_ms: float
    tail_series_ms: Dict[str, Tuple[np.ndarray, np.ndarray]]
    power_series_w: Dict[str, Tuple[np.ndarray, np.ndarray]]
    rubik_freq: Tuple[np.ndarray, np.ndarray]

    total_time_s: float = TOTAL_TIME_S

    def max_tail_after_step(self, scheme: str) -> float:
        """Worst rolling tail (ms) after the last load step."""
        times, vals = self.tail_series_ms[scheme]
        mask = times >= 2.0 * self.total_time_s / 3.0
        return float(vals[mask].max()) if mask.any() else float("nan")

    def table(self) -> str:
        lines = [f"Fig. 10 ({self.app}): load steps 25->50->75%, "
                 f"bound={self.bound_ms:.3f} ms"]
        for scheme, (t, v) in self.tail_series_ms.items():
            # Subsample for readability.
            step = max(1, len(t) // 24)
            lines.append(render_series(
                f"{scheme} tail (ms)", t[::step], v[::step]))
        t, f = self.rubik_freq
        step = max(1, len(t) // 24)
        lines.append(render_series("Rubik freq (GHz)",
                                   t[::step], f[::step] / 1e9))
        return "\n".join(lines)


def _num_requests_for(app, total_time_s: float) -> int:
    """Requests so the arrival process spans the full schedule."""
    mean_load = float(sum(STEP_FRACTIONS)) / len(STEP_FRACTIONS)
    return int(app.saturation_qps * mean_load * total_time_s)


def run_step_response(app_name: str, seed: int = 21,
                      num_requests: Optional[int] = None,
                      total_time_s: float = TOTAL_TIME_S,
                      ) -> StepResponseResult:
    """Run the three schemes through the load-step schedule.

    ``total_time_s`` scales the schedule (steps at T/3 and 2T/3), so
    tests can run a shortened version of the paper's 12 s run.
    """
    app = APPS[app_name]
    n = num_requests or _num_requests_for(app, total_time_s)
    context = make_context(app, seed, n)
    steps = [(k * total_time_s / 3.0, frac)
             for k, frac in enumerate(STEP_FRACTIONS)]
    schedule = LoadSchedule.from_loads(steps, app.saturation_qps)
    trace = Trace.generate(app, schedule, n, seed)

    # Oracles tuned at the initial 25% load.
    tune_trace = Trace.generate_at_load(app, 0.25, n, seed)
    static = StaticOracle()
    static.tune(tune_trace, context)
    adren = AdrenalineOracle()
    tr_traces, tr_bounds = training_traces(app, 0.25, seed, n)
    adren.tune(tr_traces, context, bounds_s=tr_bounds)

    runs: Dict[str, RunResult] = {
        "StaticOracle": run_trace(trace, static, context),
        "AdrenalineOracle": run_trace(trace, adren, context),
    }
    # This driver consumes the segment log and the frequency-transition
    # history (both opt-in): Fig. 10 plots power over time and Rubik's
    # frequency choices.
    rubik_run = run_trace(trace, Rubik(), context, log_segments=True,
                          record_freq_history=True)
    runs["Rubik"] = rubik_run

    tails, powers = {}, {}
    for scheme, run in runs.items():
        t, v = windowed_series(run.completions.finish,
                               run.response_times(include_warmup=True),
                               WINDOW_S, step_s=WINDOW_S / 2)
        tails[scheme] = (t, v * 1e3)
        powers[scheme] = _power_series(run)

    freq_t = np.array([t for t, _ in rubik_run.freq_history])
    freq_f = np.array([f for _, f in rubik_run.freq_history])
    return StepResponseResult(
        app=app_name,
        bound_ms=context.latency_bound_s * 1e3,
        tail_series_ms=tails,
        power_series_w=powers,
        rubik_freq=(freq_t, freq_f),
        total_time_s=total_time_s,
    )


def _power_series(run: RunResult) -> Tuple[np.ndarray, np.ndarray]:
    """Rolling mean power from the segment log (or busy approximation)."""
    if run.segment_log:
        mids = np.array([(a + b) / 2 for a, b, _ in run.segment_log])
        watts = np.array([p for _, _, p in run.segment_log])
        weights = np.array([b - a for a, b, _ in run.segment_log])
        t, v = windowed_series(
            mids, watts * weights, WINDOW_S, step_s=WINDOW_S / 2,
            reducer=np.sum)
        return t, v / WINDOW_S
    # Fallback: energy per completion smoothed over windows.
    finish = run.completions.finish
    per_req = run.energy_j / max(1, len(run.completions))
    t, v = windowed_series(finish, np.full(len(finish), per_req),
                           WINDOW_S, step_s=WINDOW_S / 2, reducer=np.sum)
    return t, v / WINDOW_S


def _step_response_point(args) -> StepResponseResult:
    """One app's step response (module-level for the parallel executor;
    the result dataclass is plain arrays/dicts, so it pickles)."""
    name, seed, num_requests = args
    return run_step_response(name, seed, num_requests)


def run_fig10(apps: Optional[Sequence[str]] = None, seed: int = 21,
              num_requests: Optional[int] = None,
              processes: Optional[int] = None,
              ) -> Dict[str, StepResponseResult]:
    """Step-response traces for all five apps (one parallel point per
    app; identical to the serial per-app loop)."""
    names = tuple(apps or app_names())
    results = run_cells("fig10", _step_response_point,
                        [(name, seed, num_requests) for name in names],
                        processes=processes)
    return dict(zip(names, results))


def main(num_requests: Optional[int] = None) -> str:
    results = run_fig10(num_requests=num_requests)
    report = "\n\n".join(r.table() for r in results.values())
    print(report)
    return report


if __name__ == "__main__":
    main()
