"""Machine configuration constants (paper Table 2) and the shared
``REPRO_*`` environment-gate helpers.

The simulated system mirrors the paper's 6-core Westmere-like CMP with
Haswell-style FIVR per-core DVFS:

* frequency range 0.8--3.4 GHz in 200 MHz steps,
* 2.4 GHz nominal frequency,
* 4 us voltage/frequency transition latency,
* 65 W TDP,
* core sleep state with private caches flushed to the LLC (Haswell C3).

All times are seconds, frequencies are Hz, and work is measured in core
cycles throughout the code base.

The ``env_*`` helpers at the bottom are the one place ``REPRO_*``
variables are read out of ``os.environ`` (enforced by the ``env-gate``
lint rule): every gate shares the same validation contract — an invalid
value warns once per distinct raw value (RuntimeWarning) and reads as
unset. Callers own the warn-once registry (a module-level set they pass
in), so their tests keep resetting warn state per module exactly as
before the consolidation.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import os
import warnings
from pathlib import Path
from typing import Optional, Set, Tuple

GHZ = 1e9
MHZ = 1e6
US = 1e-6
MS = 1e-3

#: Nominal core frequency (Table 2), also the reference for "100% load".
NOMINAL_FREQUENCY_HZ = 2.4 * GHZ

#: DVFS range and step size (Table 2).
MIN_FREQUENCY_HZ = 0.8 * GHZ
MAX_FREQUENCY_HZ = 3.4 * GHZ
FREQUENCY_STEP_HZ = 0.2 * GHZ

#: Voltage/frequency transition latency modeled in simulation (Table 2).
DVFS_TRANSITION_LATENCY_S = 4 * US

#: Transition latency observed on the real Haswell system (Sec. 5.5).
REAL_SYSTEM_DVFS_LATENCY_S = 130 * US

#: Number of cores in the simulated CMP (Table 2).
NUM_CORES = 6

#: Thermal design power of the simulated chip, watts (Table 2).
TDP_WATTS = 65.0

#: Tail-latency percentile used throughout the paper (Sec. 5.1).
TAIL_PERCENTILE = 95.0


def check_size(name: str, value) -> int:
    """``value`` as an ``int`` if it is a usable count, else a
    ``ValueError`` naming ``name``: finite, a whole number and at least
    1. A whole float or a NumPy integer is taken as the ``int`` it
    equals."""
    if not (math.isfinite(value) and int(value) == value):
        raise ValueError(f"{name} must be a whole number, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {int(value)}")
    return int(value)


def check_finite(name: str, value, positive: bool = False) -> float:
    """``value`` if it is finite (and > 0 when ``positive``), else a
    ``ValueError`` naming ``name``."""
    if not math.isfinite(value) or (positive and not value > 0):
        kind = "finite and positive" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def frequency_grid(
    min_hz: float = MIN_FREQUENCY_HZ,
    max_hz: float = MAX_FREQUENCY_HZ,
    step_hz: float = FREQUENCY_STEP_HZ,
) -> Tuple[float, ...]:
    """Return the available DVFS frequency steps, ascending.

    The default grid is the paper's 0.8--3.4 GHz range in 200 MHz steps
    (14 settings).
    """
    if min_hz <= 0 or step_hz <= 0:
        raise ValueError("frequencies and step must be positive")
    if max_hz < min_hz:
        raise ValueError("max_hz must be >= min_hz")
    steps = []
    f = min_hz
    # Tolerate float drift: stop once we pass max_hz by more than half a step.
    while f <= max_hz + step_hz / 2:
        steps.append(round(f, 3))
        f += step_hz
    return tuple(steps)


@dataclasses.dataclass(frozen=True)
class DvfsConfig:
    """Per-core DVFS capabilities.

    Attributes:
        frequencies: available frequency steps in Hz, ascending.
        transition_latency_s: time for a voltage/frequency change to take
            effect. The core keeps running at the old frequency during the
            transition (conservative, matches the paper's FIVR model).
        nominal_hz: the nominal frequency used by the fixed-frequency
            baseline and to define 100% load.
    """

    frequencies: Tuple[float, ...] = frequency_grid()
    transition_latency_s: float = DVFS_TRANSITION_LATENCY_S
    nominal_hz: float = NOMINAL_FREQUENCY_HZ

    def __post_init__(self) -> None:
        if not self.frequencies:
            raise ValueError("frequency grid must not be empty")
        if list(self.frequencies) != sorted(self.frequencies):
            raise ValueError("frequency grid must be ascending")
        if self.transition_latency_s < 0:
            raise ValueError("transition latency must be non-negative")
        if not (self.min_hz <= self.nominal_hz <= self.max_hz):
            raise ValueError("nominal frequency outside the grid range")
        # O(1) grid membership for the per-event DVFS request validation
        # (object.__setattr__ because frozen).
        object.__setattr__(self, "_freq_set", frozenset(self.frequencies))

    @property
    def min_hz(self) -> float:
        return self.frequencies[0]

    @property
    def max_hz(self) -> float:
        return self.frequencies[-1]

    def quantize_up(self, f_hz: float) -> float:
        """Smallest available frequency >= ``f_hz`` (clamped to max).

        Rubik always rounds *up* so the analytical guarantee is preserved.
        Binary search: this runs on every controller decision.
        """
        idx = bisect.bisect_left(self.frequencies, f_hz - 1e-9)
        if idx >= len(self.frequencies):
            return self.frequencies[-1]
        return self.frequencies[idx]

    def quantize_down(self, f_hz: float) -> float:
        """Largest available frequency <= ``f_hz`` (clamped to min)."""
        best = self.frequencies[0]
        for step in self.frequencies:
            if step <= f_hz + 1e-9:
                best = step
            else:
                break
        return best


@dataclasses.dataclass(frozen=True)
class CmpConfig:
    """Whole-chip configuration (paper Table 2)."""

    num_cores: int = NUM_CORES
    tdp_watts: float = TDP_WATTS
    dvfs: DvfsConfig = dataclasses.field(default_factory=DvfsConfig)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.tdp_watts <= 0:
            raise ValueError("tdp_watts must be positive")


#: Default chip configuration used across experiments.
DEFAULT_CMP = CmpConfig()

#: Default DVFS configuration used across experiments.
DEFAULT_DVFS = DEFAULT_CMP.dvfs


def real_system_dvfs() -> DvfsConfig:
    """DVFS configuration matching the paper's real-system setup (Sec. 5.5).

    Same frequency grid, but with the ~130 us transition latency observed
    on the Haswell testbed instead of the advertised 500 ns.
    """
    return DvfsConfig(transition_latency_s=REAL_SYSTEM_DVFS_LATENCY_S)


# ---------------------------------------------------------------------------
# REPRO_* environment gates (shared warn-once validation)
# ---------------------------------------------------------------------------

def _warn_once(var: str, raw: str, expected: str, warned: Set,
               stacklevel: int) -> None:
    key = (var, raw)
    if key in warned:
        return
    warned.add(key)
    # +2 skips the _warn_once and env_* frames, so ``stacklevel`` counts
    # from the env_* caller — the same frame the pre-consolidation
    # per-module warn sites pointed at with the same value.
    warnings.warn(f"ignoring invalid {var}={raw!r} ({expected})",
                  RuntimeWarning, stacklevel=stacklevel + 2)


def env_nonneg_int(var: str, warned: Set, *,
                   stacklevel: int = 3) -> Optional[int]:
    """Validated non-negative-integer gate (``REPRO_MAX_WORKERS``).

    Returns the parsed value, or ``None`` when the variable is unset or
    invalid. ``0`` and ``1`` are legitimate settings (force-serial for
    the worker cap); anything that is not a non-negative integer
    (``""``, ``"-3"``, ``"abc"``) warns once per distinct raw value —
    keyed in the caller-owned ``warned`` set — and reads as unset.
    """
    raw = os.environ.get(var)
    if raw is None:
        return None
    try:
        value: Optional[int] = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        _warn_once(var, raw, "expected a non-negative integer", warned,
                   stacklevel)
        return None
    return value


def env_tristate(var: str, warned: Set, *, stacklevel: int = 3) -> str:
    """Validated ``"1"``/``"0"``/``"auto"`` gate (``REPRO_NATIVE``,
    ``REPRO_ARTIFACT_CACHE``).

    Unset and invalid values read as ``"auto"``; invalid values warn
    once per distinct raw value in the caller-owned ``warned`` set.
    """
    raw = os.environ.get(var)
    if raw is None:
        return "auto"
    value = raw.strip().lower()
    if value in ("0", "1", "auto"):
        return value
    _warn_once(var, raw, "expected '1', '0', or 'auto'", warned,
               stacklevel)
    return "auto"


def env_str(var: str, warned: Set, *, stacklevel: int = 3) -> Optional[str]:
    """Validated free-form-string gate (``REPRO_FAULT_PLAN``).

    Unset reads as ``None``. Only an empty/whitespace-only value is
    invalid here — it warns once and reads as unset; any other content
    is returned verbatim for the caller to parse (callers apply their
    own grammar with the same warn-once contract at the call site, the
    way :func:`repro.resilience.faults.env_plan` does).
    """
    raw = os.environ.get(var)
    if raw is None:
        return None
    if not raw.strip():
        _warn_once(var, raw, "expected a non-empty value", warned,
                   stacklevel)
        return None
    return raw


def env_path(var: str, default: str, warned: Set, *,
             stacklevel: int = 3) -> Path:
    """Validated directory-path gate (``REPRO_ARTIFACT_DIR``).

    Only an empty/whitespace-only value is invalid (any other string is
    a legitimate directory name — ``"abc"`` and ``"-3"`` are valid
    paths, unlike the integer envs); it warns once and falls back to
    ``default``. The result is user-expanded.
    """
    raw = os.environ.get(var)
    if raw is None:
        return Path(default)
    if not raw.strip():
        _warn_once(var, raw, "expected a directory path", warned,
                   stacklevel)
        return Path(default)
    return Path(os.path.expanduser(raw))
