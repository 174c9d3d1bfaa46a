"""Analytical power models for cores, uncore, DRAM, and the full system.

The paper fits a regression power model to a Haswell server (Sec. 5.1).
We substitute a first-principles analytical model with the same structure
and knobs:

* per-core **dynamic** power ``C_eff * V(f)^2 * f`` while executing, with a
  reduced activity factor during memory stalls,
* per-core **leakage** ``k * V(f)^2`` whenever the core is powered,
* a deep-sleep state (Haswell C3-like) with a small residual power,
* constant-plus-utilization **uncore**/**DRAM** terms and a constant
  "other" platform component (PSU, disks, NIC), used for full-system
  numbers (Figs. 12 and 16).

Coefficients are calibrated (see ``DEFAULT_CORE_POWER``) so per-request
core energies land in the ranges of paper Fig. 9b (e.g. ~1.2 mJ/request
for masstree at nominal frequency).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Tuple

import numpy as np

from repro.config import (
    MAX_FREQUENCY_HZ,
    MIN_FREQUENCY_HZ,
    NOMINAL_FREQUENCY_HZ,
    NUM_CORES,
)


@dataclasses.dataclass(frozen=True)
class VoltageFrequencyCurve:
    """V(f) between the grid endpoints (FIVR-style operating points).

    Real chips need disproportionately more voltage near the top of the
    frequency range, so V(f) is modeled as
    ``v_min + (v_max - v_min) * x**shape`` with ``x`` the normalized
    frequency; ``shape > 1`` makes mid-range frequencies markedly cheaper
    than the nominal point, matching the convexity of the paper's
    regression-fit Haswell power model.
    """

    f_min_hz: float = MIN_FREQUENCY_HZ
    f_max_hz: float = MAX_FREQUENCY_HZ
    v_min: float = 0.55
    v_max: float = 1.15
    shape: float = 1.7

    def __post_init__(self) -> None:
        if self.f_min_hz <= 0 or self.f_max_hz <= self.f_min_hz:
            raise ValueError("need 0 < f_min < f_max")
        if self.v_min <= 0 or self.v_max < self.v_min:
            raise ValueError("need 0 < v_min <= v_max")
        if self.shape <= 0:
            raise ValueError("shape must be positive")

    def voltage(self, freq_hz: float) -> float:
        """Operating voltage at ``freq_hz`` (clamped to the curve range)."""
        if freq_hz <= self.f_min_hz:
            return self.v_min
        if freq_hz >= self.f_max_hz:
            return self.v_max
        frac = (freq_hz - self.f_min_hz) / (self.f_max_hz - self.f_min_hz)
        return self.v_min + frac ** self.shape * (self.v_max - self.v_min)


class CoreState(enum.Enum):
    """Execution state of a core, for power purposes."""

    BUSY = "busy"       # serving a latency-critical request
    BATCH = "batch"     # running a colocated batch app
    IDLE = "idle"       # deep sleep (C3-like)


@dataclasses.dataclass(frozen=True)
class CorePowerModel:
    """Power of one core (pipeline + L1s + L2, the paper's "core power").

    Attributes:
        curve: V(f) operating points.
        c_eff_farads: effective switched capacitance for dynamic power.
        leak_w_per_vk: leakage coefficient (watts per volt^leak_exponent).
        leak_exponent: voltage exponent of leakage (leakage grows
            superlinearly with voltage on real chips; 3 reproduces the
            convexity the paper's regression model exhibits).
        stall_activity: dynamic-activity factor during memory stalls,
            relative to compute activity.
        sleep_power_w: residual power in the deep-sleep state.
    """

    curve: VoltageFrequencyCurve = VoltageFrequencyCurve()
    c_eff_farads: float = 2.65e-9
    leak_w_per_vk: float = 1.30
    leak_exponent: float = 3.0
    stall_activity: float = 0.35
    sleep_power_w: float = 0.05

    def __post_init__(self) -> None:
        if self.c_eff_farads <= 0 or self.leak_w_per_vk < 0:
            raise ValueError("capacitance must be positive, leakage >= 0")
        if not 0.0 <= self.stall_activity <= 1.0:
            raise ValueError("stall_activity must be in [0, 1]")
        if self.sleep_power_w < 0:
            raise ValueError("sleep power must be non-negative")
        # Per-frequency (dynamic-at-full-activity, leakage) cache: energy
        # accounting evaluates busy_power on every segment close, and the
        # frequency grid is small. object.__setattr__ because frozen.
        object.__setattr__(self, "_fl_cache", {})

    def busy_power(self, freq_hz: float, mem_stall_frac: float = 0.0) -> float:
        """Average power while serving work at ``freq_hz``.

        Args:
            freq_hz: core frequency.
            mem_stall_frac: fraction of wall-clock time stalled on memory
                (dynamic activity drops to ``stall_activity`` there).
        """
        if not 0.0 <= mem_stall_frac <= 1.0:
            raise ValueError("mem_stall_frac must be in [0, 1]")
        dyn_full, leak = self.power_terms(freq_hz)
        activity = (1.0 - mem_stall_frac) + self.stall_activity * mem_stall_frac
        return dyn_full * activity + leak

    def power_terms(self, freq_hz: float) -> Tuple[float, float]:
        """The cached ``(dynamic power at full activity, leakage)`` pair
        at ``freq_hz`` that :meth:`busy_power` combines (the native
        span loop folds segments with these same floats)."""
        cached = self._fl_cache.get(freq_hz)
        if cached is None:
            if freq_hz <= 0:
                raise ValueError("frequency must be positive")
            v = self.curve.voltage(freq_hz)
            cached = (self.c_eff_farads * v * v * freq_hz,
                      self.leak_w_per_vk * v ** self.leak_exponent)
            self._fl_cache[freq_hz] = cached
        return cached

    def power(self, state: CoreState, freq_hz: float,
              mem_stall_frac: float = 0.0) -> float:
        """Instantaneous power in ``state`` at ``freq_hz``."""
        if state is CoreState.IDLE:
            return self.sleep_power_w
        return self.busy_power(freq_hz, mem_stall_frac)

    def busy_power_values(self, freqs, mem_stall_fracs):
        """Vectorized :meth:`busy_power` over parallel arrays.

        Element ``i`` is bitwise-identical to
        ``busy_power(freqs[i], mem_stall_fracs[i])``: the per-frequency
        (dynamic, leakage) pairs come from the same cache, and the
        combining arithmetic is the same two-operation expression applied
        elementwise. Used by the batched segment integrator.
        """
        freqs = np.asarray(freqs, dtype=float)
        mem_stall_fracs = np.asarray(mem_stall_fracs, dtype=float)
        if mem_stall_fracs.size and (
                float(mem_stall_fracs.min()) < 0.0
                or float(mem_stall_fracs.max()) > 1.0):
            # Same loud failure the scalar busy_power() raises — invalid
            # stall fractions must not be silently integrated.
            raise ValueError("mem_stall_frac must be in [0, 1]")
        uniq, inverse = np.unique(freqs, return_inverse=True)
        dyn_full = np.empty(uniq.shape)
        leak = np.empty(uniq.shape)
        for k, f in enumerate(uniq):
            dyn_full[k], leak[k] = self.power_terms(float(f))
        activity = (1.0 - mem_stall_fracs) + self.stall_activity * mem_stall_fracs
        return dyn_full[inverse] * activity + leak[inverse]

    def energy_per_cycle(self, freq_hz: float) -> float:
        """Joules per compute cycle at ``freq_hz`` (busy, no stalls)."""
        return self.busy_power(freq_hz) / freq_hz


@dataclasses.dataclass(frozen=True)
class PlatformPowerModel:
    """Non-core components for full-system numbers (Figs. 12 and 16).

    Uncore and DRAM have a constant (idle) part plus a part proportional to
    aggregate core utilization; "other" covers PSU losses, disks and NICs.
    Calibrated to a dual-digit idle platform power, matching the paper's
    observation that idle power dominates at low load.
    """

    uncore_idle_w: float = 7.0
    uncore_active_w: float = 5.0
    dram_idle_w: float = 6.0
    dram_active_w: float = 8.0
    other_w: float = 28.0

    def power(self, utilization: float) -> float:
        """Platform (non-core) power at the given mean core utilization."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        return (
            self.uncore_idle_w + self.uncore_active_w * utilization
            + self.dram_idle_w + self.dram_active_w * utilization
            + self.other_w
        )


@dataclasses.dataclass(frozen=True)
class SystemPowerModel:
    """Full server: ``num_cores`` cores plus the platform."""

    core: CorePowerModel = CorePowerModel()
    platform: PlatformPowerModel = PlatformPowerModel()
    num_cores: int = NUM_CORES

    def server_power(self, per_core_power_w: float, utilization: float) -> float:
        """Total server power given mean per-core power and utilization."""
        return self.num_cores * per_core_power_w + self.platform.power(utilization)


#: Shared default instances used across experiments.
DEFAULT_CORE_POWER = CorePowerModel()
DEFAULT_SYSTEM_POWER = SystemPowerModel()


def nominal_busy_power_w(model: CorePowerModel = DEFAULT_CORE_POWER) -> float:
    """Busy core power at the nominal 2.4 GHz (reference for savings)."""
    return model.busy_power(NOMINAL_FREQUENCY_HZ)
