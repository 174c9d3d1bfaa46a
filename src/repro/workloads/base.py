"""Latency-critical application models.

Each application is a parametric service-demand distribution calibrated to
the paper's reported behaviour (DESIGN.md Sec. 5). A request's demand has
two independent lognormal components:

* compute cycles ``C`` (frequency-scalable),
* memory-bound time ``M`` (frequency-invariant),

chosen so that at the nominal frequency the total service time
``C/f_nom + M`` has the target mean and coefficient of variation, and the
memory component contributes ``mem_fraction`` of the mean.

Lognormals capture the right-skewed, strictly positive service times seen
in the paper's applications; the CV knob spans the paper's spectrum from
tightly clustered (masstree, moses) to highly variable (specjbb).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from repro.config import NOMINAL_FREQUENCY_HZ


def lognormal_params(mean: float, cv: float) -> Tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and CV."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)


def check_load(load: float) -> float:
    """``load`` if it is a usable fraction of saturation, else a
    ``ValueError`` naming it: finite and > 0 (overload, > 1, is legal)."""
    if not (math.isfinite(load) and load > 0):
        raise ValueError(
            f"load must be a finite fraction of saturation > 0, "
            f"got {load!r}")
    return load


@dataclasses.dataclass(frozen=True)
class AppProfile:
    """A latency-critical application (paper Table 3 + Sec. 3 analysis).

    Attributes:
        name: application name.
        mean_service_s: mean service time at nominal frequency.
        service_cv: coefficient of variation of total service time.
        mem_fraction: fraction of mean service time that is memory-bound.
        num_requests: per-run request count (paper Table 3).
        workload: human-readable workload configuration (paper Table 3).
        long_fraction: fraction of requests drawn from a "long" class
            whose mean demand is ``long_scale`` times the short class's
            (0 disables the mixture). Captures bimodal workloads such as
            specjbb, where rare long requests dominate the response tail.
        long_scale: demand multiplier of the long class.
        hint_quality: how well a request's length can be predicted from
            application-level hints *at arrival*, in [0, 1]. 1 means fully
            predictable (query structure reveals cost, as Adrenaline
            assumes); 0 means unpredictable (e.g. JIT/GC-induced
            variability). The paper notes "not all applications are
            amenable to hints" (Sec. 2.2); this is that knob.
    """

    name: str
    mean_service_s: float
    service_cv: float
    mem_fraction: float
    num_requests: int
    workload: str = ""
    nominal_hz: float = NOMINAL_FREQUENCY_HZ
    long_fraction: float = 0.0
    long_scale: float = 1.0
    hint_quality: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_service_s <= 0:
            raise ValueError("mean service time must be positive")
        if self.service_cv < 0:
            raise ValueError("service CV must be non-negative")
        if not 0.0 <= self.mem_fraction < 1.0:
            raise ValueError("mem_fraction must be in [0, 1)")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if not 0.0 <= self.long_fraction < 1.0:
            raise ValueError("long_fraction must be in [0, 1)")
        if self.long_scale < 1.0:
            raise ValueError("long_scale must be >= 1")
        if not 0.0 <= self.hint_quality <= 1.0:
            raise ValueError("hint_quality must be in [0, 1]")

    # ------------------------------------------------------------------
    @property
    def saturation_qps(self) -> float:
        """Arrival rate that saturates one core at nominal frequency.

        The paper's "100% load" (Sec. 5.3).
        """
        return 1.0 / self.mean_service_s

    def rate_for_load(self, load: float) -> float:
        """Arrival rate (QPS) for a load fraction of saturation.

        ``load`` must pass :func:`check_load`: a zero load never
        generates an arrival, and a NaN one breaks trace generation
        far from the caller.
        """
        return check_load(load) * self.saturation_qps

    # ------------------------------------------------------------------
    def _component_params(self) -> Tuple[float, float, float, float]:
        """Lognormal (mu, sigma) for the compute-time and memory-time parts.

        Both components get the same CV, scaled so the *total* service time
        hits ``service_cv`` (variances of independent components add).
        """
        mean_compute_s = (1.0 - self.mem_fraction) * self.mean_service_s
        mean_memory_s = self.mem_fraction * self.mean_service_s
        denom = math.sqrt((1.0 - self.mem_fraction) ** 2 + self.mem_fraction ** 2)
        comp_cv = self.service_cv / denom if denom > 0 else self.service_cv
        mu_c, sg_c = lognormal_params(mean_compute_s, comp_cv)
        if mean_memory_s > 0:
            mu_m, sg_m = lognormal_params(mean_memory_s, comp_cv)
        else:
            mu_m, sg_m = -math.inf, 0.0
        return mu_c, sg_c, mu_m, sg_m

    def sample_demands(
        self, num: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``num`` request demands.

        Returns:
            (compute_cycles, memory_time_s) arrays of length ``num``.
        """
        if num <= 0:
            raise ValueError("num must be positive")
        mu_c, sg_c, mu_m, sg_m = self._component_params()
        compute_s = rng.lognormal(mu_c, sg_c, size=num)
        if math.isinf(mu_m):
            memory_s = np.zeros(num)
        else:
            memory_s = rng.lognormal(mu_m, sg_m, size=num)
        if self.long_fraction > 0.0:
            # Mixture: scale a random subset up, keeping the overall mean.
            base_scale = 1.0 / (1.0 - self.long_fraction
                                + self.long_fraction * self.long_scale)
            is_long = rng.random(num) < self.long_fraction
            factor = base_scale * np.where(is_long, self.long_scale, 1.0)
            compute_s = compute_s * factor
            memory_s = memory_s * factor
        cycles = compute_s * self.nominal_hz
        return cycles, memory_s

    def predict_demands(self, cycles: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """Hint-based per-request demand predictions (for Adrenaline).

        Blends the true demand with an independent draw in log space:
        ``hint_quality = 1`` returns the truth, ``0`` returns pure noise
        with the same marginal distribution.
        """
        q = self.hint_quality
        if q >= 1.0:
            return np.asarray(cycles, dtype=float).copy()
        independent, _ = self.sample_demands(len(cycles), rng)
        return np.exp(q * np.log(cycles) + (1.0 - q) * np.log(independent))

    def service_time_at(self, cycles: np.ndarray, memory_s: np.ndarray,
                        freq_hz: float) -> np.ndarray:
        """Vectorized service time of demands at a fixed frequency."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        return cycles / freq_hz + memory_s

    def mean_demands(self) -> Tuple[float, float]:
        """Mean ``(compute cycles, memory seconds)`` of one request.

        :meth:`sample_demands` draws both components with these means
        (the long-request mixture rescales to keep them).
        """
        return ((1.0 - self.mem_fraction) * self.mean_service_s
                * self.nominal_hz,
                self.mem_fraction * self.mean_service_s)
