"""Batch application models for colocation (paper Secs. 6--7).

The paper's batch work is SPEC CPU2006; colocation results depend on each
app's *IPC-versus-frequency curve* and power, not its semantics, so each
batch app is modeled by two constants:

* ``cpi_core``: core cycles per instruction when not stalled on memory,
* ``mem_ns_per_instr``: frequency-invariant memory-stall time per
  instruction (with the partitioned LLC/DRAM share of Table 2, so it does
  not depend on co-runners — the property the paper's fixed-work
  methodology relies on).

Instruction throughput at frequency ``f`` is
``1 / (cpi_core/f + mem_time_per_instr)``; memory-bound apps (mcf, lbm)
barely speed up with frequency while compute-bound apps (namd, povray)
scale almost linearly — which is exactly what drives the HW-T/HW-TPW
allocation pathologies in Fig. 15.

:class:`BatchTask` implements the :class:`repro.sim.core.BackgroundTask`
protocol so a core runs it whenever the LC queue is empty.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import DvfsConfig
from repro.power.model import CorePowerModel


@dataclasses.dataclass(frozen=True)
class BatchAppProfile:
    """A SPEC-CPU2006-like batch application."""

    name: str
    cpi_core: float
    mem_ns_per_instr: float

    def __post_init__(self) -> None:
        if self.cpi_core <= 0:
            raise ValueError("cpi_core must be positive")
        if self.mem_ns_per_instr < 0:
            raise ValueError("mem_ns_per_instr must be non-negative")

    def seconds_per_instr(self, freq_hz: float) -> float:
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.cpi_core / freq_hz + self.mem_ns_per_instr * 1e-9

    def throughput(self, freq_hz: float) -> float:
        """Instructions per second at ``freq_hz``."""
        return 1.0 / self.seconds_per_instr(freq_hz)

    def mem_stall_frac(self, freq_hz: float) -> float:
        """Fraction of wall-clock time stalled on memory at ``freq_hz``."""
        total = self.seconds_per_instr(freq_hz)
        return (self.mem_ns_per_instr * 1e-9) / total

    def best_tpw_frequency(self, dvfs: DvfsConfig,
                           power: CorePowerModel) -> float:
        """Grid frequency maximizing throughput per watt.

        Batch apps never run above nominal, to stay within TDP (paper
        Sec. 7 experimental setup).
        """
        best_f = dvfs.min_hz
        best_tpw = -1.0
        for f in dvfs.frequencies:
            if f > dvfs.nominal_hz:
                break
            tpw = self.throughput(f) / power.busy_power(f, self.mem_stall_frac(f))
            if tpw > best_tpw:
                best_tpw = tpw
                best_f = f
        return best_f


#: A SPEC-CPU2006-like catalogue spanning compute-bound to memory-bound.
#: cpi/mem values chosen so nominal IPCs span ~0.2 (mcf-like) to ~2
#: (povray-like), the range reported for SPEC on Westmere-class cores.
SPEC_APPS: Tuple[BatchAppProfile, ...] = (
    BatchAppProfile("perlbench", 0.55, 0.15),
    BatchAppProfile("bzip2", 0.70, 0.25),
    BatchAppProfile("gcc", 0.80, 0.45),
    BatchAppProfile("mcf", 0.90, 2.60),
    BatchAppProfile("gobmk", 0.75, 0.10),
    BatchAppProfile("hmmer", 0.45, 0.05),
    BatchAppProfile("sjeng", 0.70, 0.08),
    BatchAppProfile("libquantum", 0.60, 1.80),
    BatchAppProfile("omnetpp", 0.85, 1.10),
    BatchAppProfile("astar", 0.80, 0.60),
    BatchAppProfile("xalancbmk", 0.85, 0.90),
    BatchAppProfile("milc", 0.65, 1.40),
    BatchAppProfile("namd", 0.42, 0.04),
    BatchAppProfile("soplex", 0.75, 1.00),
    BatchAppProfile("povray", 0.48, 0.03),
    BatchAppProfile("lbm", 0.60, 2.20),
    BatchAppProfile("sphinx3", 0.70, 0.70),
    BatchAppProfile("calculix", 0.50, 0.12),
)

SPEC_BY_NAME: Dict[str, BatchAppProfile] = {a.name: a for a in SPEC_APPS}


def generate_mixes(num_mixes: int = 20, apps_per_mix: int = 6,
                   seed: int = 0) -> List[Tuple[BatchAppProfile, ...]]:
    """Random 6-app mixes (paper: 20 mixes of six randomly chosen apps)."""
    if num_mixes <= 0 or apps_per_mix <= 0:
        raise ValueError("num_mixes and apps_per_mix must be positive")
    rng = np.random.default_rng(seed)
    mixes = []
    for _ in range(num_mixes):
        idx = rng.choice(len(SPEC_APPS), size=apps_per_mix, replace=False)
        mixes.append(tuple(SPEC_APPS[i] for i in idx))
    return mixes


class BatchTask:
    """Executable batch-app instance (BackgroundTask protocol).

    Tracks retired instructions and the time it ran, so colocated-server
    experiments can report batch throughput (Fig. 16's fixed-work
    accounting).
    """

    def __init__(self, profile: BatchAppProfile, dvfs: DvfsConfig,
                 power: CorePowerModel) -> None:
        self.profile = profile
        self._preferred_hz = profile.best_tpw_frequency(dvfs, power)
        self.instructions = 0.0
        self.run_time_s = 0.0

    def preferred_frequency(self, dvfs: DvfsConfig) -> float:
        return self._preferred_hz

    def run(self, duration_s: float, freq_hz: float) -> None:
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.instructions += duration_s * self.profile.throughput(freq_hz)
        self.run_time_s += duration_s

    def mem_stall_frac(self, freq_hz: float) -> float:
        return self.profile.mem_stall_frac(freq_hz)

    @property
    def mean_throughput(self) -> float:
        """Instructions per second of *wall-clock* run time."""
        if self.run_time_s <= 0:
            return 0.0
        return self.instructions / self.run_time_s
