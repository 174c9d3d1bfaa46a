"""Pegasus-style feedback controller (paper Sec. 2.2; Lo et al., ISCA'14).

Pegasus measures tail latency over a coarse window and adjusts a single
chip-wide frequency every few seconds. It adapts to diurnal load changes
but not to sub-millisecond variability — StaticOracle upper-bounds its
savings (the paper evaluates StaticOracle for exactly that reason). We
include an executable Pegasus for completeness and for the ablation
bench that quantifies the feedback-only gap against Rubik.

The controller follows Pegasus's published rules: large violation ->
jump to max; small violation -> step up; comfortably below the target ->
step down; otherwise hold.

The real system also watches server power (it reads RAPL alongside the
latency histogram), so each adjustment here records the mean core power
of the window it just acted on. That observation reads ``core.meter``
*mid-run*, which under the batched segment accounting requires the
explicit flush hook: ``core.flush_accounting()`` integrates the pending
segment buffer first (a no-op for totals — integration is
order-preserving — so telemetry never perturbs the energy results).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.windows import RollingTailEstimator
from repro.config import check_finite
from repro.schemes.base import Scheme, SchemeContext
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request


class Pegasus(Scheme):
    """Coarse-grain feedback DVFS: one frequency, adjusted per window."""

    name = "Pegasus"

    def __init__(
        self,
        window_s: float = 1.0,
        adjust_period_s: float = 1.0,
        high_violation: float = 1.0,
        step_down_margin: float = 0.85,
        min_window_samples: int = 30,
    ) -> None:
        """Args:
            window_s: tail-measurement window.
            adjust_period_s: how often the frequency is re-decided (the
                real system uses seconds; we default to 1 s).
            high_violation: measured/target ratio above which the
                controller panics to max frequency.
            step_down_margin: measured/target ratio below which it steps
                one grid notch down.
            min_window_samples: completions needed before acting.

        The window and period must be finite and positive (a
        ``ValueError`` names the one that is not).
        """
        check_finite("window_s", window_s, positive=True)
        check_finite("adjust_period_s", adjust_period_s, positive=True)
        if not 0 < step_down_margin < high_violation:
            raise ValueError("need 0 < step_down_margin < high_violation")
        self.window_s = window_s
        self.adjust_period_s = adjust_period_s
        self.high_violation = high_violation
        self.step_down_margin = step_down_margin
        self.min_window_samples = min_window_samples
        self._last_adjust = float("-inf")
        self.adjustments = 0
        #: (time, mean core watts since the previous adjustment) — the
        #: power feed a deployed Pegasus reads next to its latency feed.
        self.power_log: List[Tuple[float, float]] = []
        self._last_energy_j = 0.0
        self._last_time_s = 0.0

    def setup(self, sim: Simulator, core: Core, context: SchemeContext) -> None:
        super().setup(sim, core, context)
        self._estimator = RollingTailEstimator(
            self.window_s, context.tail_percentile)
        self._level = len(context.dvfs.frequencies) - 1  # start at max

    def initial_frequency(self) -> float:
        return self.context.dvfs.max_hz

    def on_completion(self, core: Core, request: Request) -> None:
        now = self.sim.now
        self._estimator.observe(now, request.response_time)
        if now - self._last_adjust < self.adjust_period_s:
            return
        if self._estimator.count() < self.min_window_samples:
            return
        self._last_adjust = now
        self._observe_power(core, now)
        measured = self._estimator.tail(now)
        assert measured is not None
        ratio = measured / self.context.latency_bound_s
        grid = self.context.dvfs.frequencies
        if ratio > self.high_violation:
            self._level = len(grid) - 1
        elif ratio > 1.0:
            self._level = min(len(grid) - 1, self._level + 1)
        elif ratio < self.step_down_margin:
            self._level = max(0, self._level - 1)
        self.adjustments += 1
        core.request_frequency(grid[self._level])

    def _observe_power(self, core: Core, now: float) -> None:
        """Record the window's mean core power (the flush-hook contract:
        integrate buffered segments before reading the meter mid-run)."""
        core.flush_accounting()
        meter = core.meter
        d_energy = meter.energy_j - self._last_energy_j
        d_time = meter.total_time_s - self._last_time_s
        if d_time > 0:
            self.power_log.append((now, d_energy / d_time))
        self._last_energy_j = meter.energy_j
        self._last_time_s = meter.total_time_s
