"""Datacenter-scale aggregation (paper Sec. 7.2, Figs. 14 and 16).

Two datacenters run matching work (fixed-work methodology):

* **Segregated** (baseline): 1000 LC servers (200 per LC app, 6 copies
  each, StaticOracle frequencies) plus 1000 batch servers (50 per mix,
  every batch app at its best throughput-per-watt frequency).
* **Colocated**: the 1000 LC servers also absorb the corresponding batch
  mixes under RubikColoc; because colocated batch apps get less
  throughput, extra batch-only servers are provisioned to match the
  segregated datacenter's per-app batch throughput.

The per-server computations are :func:`segregated_server` and
:func:`colocated_server`; :mod:`repro.fleet.shards` runs both over the
representative fleet, and :func:`compare_datacenters` aggregates that
fleet into total power and server counts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_CMP, check_size
from repro.coloc.batch import BatchAppProfile, generate_mixes
from repro.coloc.server import run_colocated_server
from repro.power.model import DEFAULT_CORE_POWER, DEFAULT_SYSTEM_POWER
from repro.schemes.base import SchemeContext
from repro.schemes.replay import replay
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.trace import Trace
from repro.workloads.base import AppProfile

#: Fleet shape of the paper's experiment (Fig. 14).
LC_SERVERS = 1000
BATCH_SERVERS = 1000
SERVERS_PER_APP = 200
SERVERS_PER_MIX = 50

#: The colocation scheme of the colocated datacenter (paper Sec. 7.2).
COLOC_SCHEME = "RubikColoc"


@dataclasses.dataclass
class DatacenterPoint:
    """Power and server count of one datacenter at one LC load."""

    lc_load: float
    lc_server_power_w: float     # mean power of one LC/colocated server
    batch_server_power_w: float  # mean power of one batch-only server
    num_lc_servers: int
    num_batch_servers: float

    @property
    def total_power_w(self) -> float:
        return (self.num_lc_servers * self.lc_server_power_w
                + self.num_batch_servers * self.batch_server_power_w)

    @property
    def total_servers(self) -> float:
        return self.num_lc_servers + self.num_batch_servers


def batch_server_power(mix: Sequence[BatchAppProfile]) -> float:
    """Power of a dedicated batch server running ``mix`` at best TPW."""
    per_core = []
    for profile in mix:
        f = profile.best_tpw_frequency(DEFAULT_CMP.dvfs, DEFAULT_CORE_POWER)
        per_core.append(DEFAULT_CORE_POWER.busy_power(
            f, profile.mem_stall_frac(f)))
    mean_core = float(np.mean(per_core))
    return DEFAULT_SYSTEM_POWER.server_power(mean_core, utilization=1.0)


def batch_server_throughput(
        mix: Sequence[BatchAppProfile]) -> Dict[str, float]:
    """Per-app instructions/second on a dedicated batch server (1 core/app)."""
    out: Dict[str, float] = {}
    for profile in mix:
        f = profile.best_tpw_frequency(DEFAULT_CMP.dvfs, DEFAULT_CORE_POWER)
        out[profile.name] = out.get(profile.name, 0.0) + profile.throughput(f)
    return out


def segregated_server(
    app: AppProfile,
    load: float,
    seed: int,
    num_requests: int,
) -> Tuple[float, float, float]:
    """One segregated LC server (6 copies, StaticOracle DVFS):
    ``(server power W, 95th-pct tail s, StaticOracle frequency Hz)``."""
    from repro.experiments.common import latency_bound  # cycle-free import

    bound = latency_bound(app, seed, num_requests)
    context = SchemeContext(latency_bound_s=bound, app=app)
    trace = Trace.generate_at_load(app, load, num_requests, seed)
    freq = find_static_frequency(trace, bound, context)
    result = replay(trace, freq)
    power = DEFAULT_SYSTEM_POWER.server_power(
        result.mean_core_power_w, utilization=min(1.0, load))
    return power, result.tail_latency(), freq


def colocated_server(
    app: AppProfile,
    mix: Sequence[BatchAppProfile],
    load: float,
    seed: int,
    requests_per_core: int,
) -> Tuple[float, float, float]:
    """One LC server colocated with ``mix`` under ``COLOC_SCHEME``, at
    the segregated server's latency bound: ``(server power W, batch
    deficit, LC tail s)``. The deficit is the fraction of a dedicated
    batch server (:func:`batch_server_throughput`) still needed."""
    from repro.experiments.common import latency_bound  # cycle-free import

    bound = latency_bound(app, seed, requests_per_core * 2)
    context = SchemeContext(latency_bound_s=bound, app=app)
    coloc = run_colocated_server(
        app, load, mix, COLOC_SCHEME, context, seed=seed,
        requests_per_core=requests_per_core)
    util = min(1.0, coloc.core_utilization)
    power = DEFAULT_SYSTEM_POWER.server_power(
        coloc.mean_core_power_w / coloc.num_cores, util)
    ratios = []
    for name, seg_ips in batch_server_throughput(mix).items():
        ratios.append(coloc.batch_throughput(name) / seg_ips)
    deficit = max(0.0, 1.0 - float(np.mean(ratios)))
    return power, deficit, coloc.tail_latency()


@dataclasses.dataclass
class DatacenterComparison:
    """Segregated vs RubikColoc datacenters at one LC load."""

    segregated: DatacenterPoint
    colocated: DatacenterPoint

    @property
    def power_reduction(self) -> float:
        return 1.0 - self.colocated.total_power_w / self.segregated.total_power_w

    @property
    def server_reduction(self) -> float:
        return 1.0 - self.colocated.total_servers / self.segregated.total_servers


def datacenter_defaults(
    num_mixes: Optional[int] = None,
    requests_per_core: Optional[int] = None,
) -> Tuple[int, int]:
    """Resolve ``(num_mixes, requests_per_core)`` from ``CONFIGS["fig16"]``.

    The single source of the datacenter sizes for
    :func:`compare_datacenters`,
    :func:`~repro.fleet.shards.run_datacenter_fleet` and ``run_fig16``,
    so direct library calls with default arguments reproduce the
    driver's cells exactly. Raises ``ValueError`` naming the argument
    when either value is not finite, not a whole number or below 1, so
    every caller rejects a bad size before it dispatches a cell; a
    whole float or a NumPy integer is taken as the ``int`` it equals.
    """
    from repro.experiments.configs import CONFIGS  # leaf module; no cycle

    config = CONFIGS["fig16"]
    if num_mixes is None:
        num_mixes = config.extra("num_mixes")
    if requests_per_core is None:
        requests_per_core = config.extra("default_requests_per_core")
    return (check_size("num_mixes", num_mixes),
            check_size("requests_per_core", requests_per_core))


def compare_datacenters(
    lc_load: float,
    seed: int = 21,
    num_mixes: Optional[int] = None,
    requests_per_core: Optional[int] = None,
    num_shards: int = 1,
    processes: Optional[int] = None,
) -> DatacenterComparison:
    """Evaluate both datacenters at one LC load (one Fig. 16 x-point).

    ``num_mixes`` sub-samples the paper's 20 mixes to bound simulation
    time; each sampled mix is paired with every LC app, as in the paper's
    interleaving. Defaults come from ``CONFIGS["fig16"]``
    (:func:`datacenter_defaults`), so a default call reproduces the
    fig16 driver's cells.

    The per-server work runs on the representative fleet
    (:func:`repro.fleet.run_datacenter_fleet`, whose ``num_shards``
    slices fan out over the shared pool), the only datacenter path;
    this function averages its struct-of-arrays state. The test suite
    pins it bitwise against an inline copy of the original
    single-process loop (``tests/fleet/test_invariance.py``).
    """
    num_mixes, requests_per_core = datacenter_defaults(
        num_mixes, requests_per_core)
    from repro.fleet.shards import run_datacenter_fleet  # cycle-free import

    state = run_datacenter_fleet(
        lc_load, seed=seed, num_mixes=num_mixes,
        requests_per_core=requests_per_core,
        num_shards=num_shards, processes=processes)
    mixes = generate_mixes(num_mixes=num_mixes, seed=0)
    batch_powers = [batch_server_power(mix) for mix in mixes]
    mean_batch_power = float(np.mean(batch_powers))
    segregated = DatacenterPoint(
        lc_load=lc_load,
        lc_server_power_w=state.mean("seg_power_w"),
        batch_server_power_w=mean_batch_power,
        num_lc_servers=LC_SERVERS,
        num_batch_servers=BATCH_SERVERS,
    )
    colocated = DatacenterPoint(
        lc_load=lc_load,
        lc_server_power_w=state.mean("coloc_power_w"),
        batch_server_power_w=mean_batch_power,
        num_lc_servers=LC_SERVERS,
        num_batch_servers=BATCH_SERVERS * state.mean("batch_deficit"),
    )
    return DatacenterComparison(segregated=segregated, colocated=colocated)
