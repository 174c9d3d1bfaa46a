"""Fixed-frequency baseline (paper Sec. 5.2).

Runs every request at a single static frequency — by default the nominal
2.4 GHz, which defines both the 100% load point and the latency bounds
used by all adaptive schemes (the fixed-frequency tail at 50% load).
"""

from __future__ import annotations

from typing import Optional

from repro.schemes.base import Scheme, overrides
from repro.sim.core import Core
from repro.sim.engine import Simulator


class FixedFrequency(Scheme):
    """Always run at one frequency; never issues DVFS transitions."""

    def __init__(self, freq_hz: Optional[float] = None) -> None:
        """Args:
            freq_hz: the static frequency; defaults to nominal. Must lie
                on the DVFS grid (validated at setup).
        """
        self._freq_hz = freq_hz

    @property
    def name(self) -> str:  # type: ignore[override]
        if self._freq_hz is None:
            return "Fixed-frequency"
        return f"Fixed@{self._freq_hz / 1e9:.1f}GHz"

    def initial_frequency(self) -> float:
        if self._freq_hz is None:
            return self.context.dvfs.nominal_hz
        if self._freq_hz not in self.context.dvfs.frequencies:
            raise ValueError(
                f"fixed frequency {self._freq_hz} is not on the DVFS grid")
        return self._freq_hz

    def native_session(self, sim: Simulator, core: Core, trace):
        """The C span loop with no LC policy (the scheme requests
        nothing after setup), unless a subclass adds an event hook."""
        if overrides(self, Scheme):
            return None
        # Imported on first use, like Rubik's.
        from repro.core._native.session import LC_NONE, NativeRunSession

        return NativeRunSession.create(sim, core, self, trace, LC_NONE)
