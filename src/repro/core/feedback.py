"""Feedback-based fine-tuning (paper Sec. 4.2).

Rubik's analytical model is deliberately conservative (bucket-edge tails,
triangle-inequality combination of compute and memory tails), so it tends
to run slightly faster than necessary. A small PI controller observes the
measured tail latency over a rolling window (paper: 1 s) and nudges the
*internal* latency target the analytical model aims at: when the measured
tail sits below the bound, the internal target relaxes and frequencies
drop; if the tail creeps above the bound, the target tightens.

The adjustment range is clamped — feedback is a trim, not the mechanism
that enforces the bound (that is the analytical model's job).
"""

from __future__ import annotations

from repro.analysis.windows import RollingTailEstimator
from repro.config import check_finite, check_size


class LatencyTargetTrimmer:
    """PI controller on the internal latency target."""

    def __init__(
        self,
        bound_s: float,
        tail_percentile: float = 95.0,
        window_s: float = 1.0,
        adjust_period_s: float = 0.1,
        kp: float = 0.6,
        ki: float = 0.8,
        min_scale: float = 0.6,
        max_scale: float = 2.5,
        min_window_samples: int = 40,
    ) -> None:
        """Args:
            bound_s: the external tail-latency bound ``L``.
            tail_percentile: percentile the bound applies to.
            window_s: rolling measurement window (paper: 1 s).
            adjust_period_s: how often the target is re-trimmed.
            kp, ki: proportional and integral gains on the *relative*
                error ``(L - measured_tail) / L``.
            min_scale, max_scale: clamp on the internal target as a
                multiple of the bound.
            min_window_samples: completions required in the window before
                trimming (tail estimates from few samples are noise).

        A ``ValueError`` names any argument out of range: the bound,
        window and period must be finite and positive, the gains and
        scales finite, and ``min_window_samples`` a whole number >= 1.
        """
        check_finite("bound_s", bound_s, positive=True)
        check_finite("adjust_period_s", adjust_period_s, positive=True)
        for name, value in (("kp", kp), ("ki", ki), ("min_scale", min_scale),
                            ("max_scale", max_scale)):
            check_finite(name, value)
        min_window_samples = check_size("min_window_samples",
                                        min_window_samples)
        if min_scale <= 0 or max_scale < min_scale:
            raise ValueError("need 0 < min_scale <= max_scale")
        self.bound_s = bound_s
        self.kp = kp
        self.ki = ki
        self.min_scale = min_scale
        self.max_scale = max_scale
        self.adjust_period_s = adjust_period_s
        self.min_window_samples = min_window_samples
        self._estimator = RollingTailEstimator(window_s, tail_percentile)
        self._integral = 0.0
        self._last_adjust = float("-inf")
        self.internal_target_s = bound_s

    def observe(self, now: float, latency_s: float) -> None:
        """Record a completion and re-trim if the period elapsed."""
        self._estimator.observe(now, latency_s)
        if now - self._last_adjust >= self.adjust_period_s:
            self._adjust(now)
            self._last_adjust = now

    def _adjust(self, now: float) -> None:
        if self._estimator.count() < self.min_window_samples:
            return
        measured = self._estimator.tail(now)
        if measured is None:
            return
        error = (self.bound_s - measured) / self.bound_s
        self._integral += error * self.adjust_period_s
        scale = 1.0 + self.kp * error + self.ki * self._integral
        scale = min(self.max_scale, max(self.min_scale, scale))
        # Anti-windup: when clamped, freeze the integral at the value that
        # produces the clamp so recovery is immediate.
        implied = (scale - 1.0 - self.kp * error) / self.ki if self.ki else 0.0
        self._integral = implied
        self.internal_target_s = scale * self.bound_s
