"""Fleet scenario — power-aware routing across a sharded datacenter.

The first cluster-level result beyond the paper's representative-server
methodology (Sec. 7.2): thousands of servers with per-server offered
load drawn from a seeded distribution, a power-aware router re-splitting
each app's demand every epoch against simulation-calibrated power
curves, versus the clipped-affinity baseline (every server keeps its own
demand, excess shed). Execution is the Layer 9 sharded fleet
(:mod:`repro.fleet`): anchor/placement/integration cells of the
``fleet`` driver, bitwise-invariant across shard counts.

Expected shape: routing concentrates load on power-efficient servers,
cutting fleet energy against the affinity baseline while absorbing the
overload the baseline sheds (overloaded baseline servers report NaN
tails and are counted, not averaged).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import render_table
from repro.experiments.configs import CONFIGS
from repro.fleet import RoutedFleetResult, run_routed_fleet

CONFIG = CONFIGS["fleet"]


def run_fleet_scenario(
    num_servers: Optional[int] = None,
    seed: int = 21,
    num_epochs: Optional[int] = None,
    num_shards: Optional[int] = None,
    requests_per_core: Optional[int] = None,
    processes: Optional[int] = None,
) -> RoutedFleetResult:
    """The routed-fleet scenario at the config's paper-scale defaults."""
    if num_servers is None:
        num_servers = CONFIG.extra("num_servers")
    if num_epochs is None:
        num_epochs = CONFIG.extra("num_epochs")
    if num_shards is None:
        num_shards = CONFIG.extra("num_shards")
    if requests_per_core is None:
        requests_per_core = CONFIG.extra("default_requests_per_core")
    return run_routed_fleet(
        num_servers=num_servers,
        seed=seed,
        num_epochs=num_epochs,
        num_shards=num_shards,
        requests_per_core=requests_per_core,
        base_load=CONFIG.extra("base_load"),
        demand_sigma=CONFIG.extra("demand_sigma"),
        processes=processes,
    )


def render(result: RoutedFleetResult) -> str:
    rows = [
        ("servers", float(result.num_servers)),
        ("routing epochs", float(result.num_epochs)),
        ("shards", float(result.num_shards)),
        ("baseline energy (MJ)", result.baseline_energy_j / 1e6),
        ("routed energy (MJ)", result.routed_energy_j / 1e6),
        ("energy savings (%)", result.energy_savings_frac * 100),
        ("baseline shed load (server-epochs)", result.baseline_shed_load),
        ("routed shed load (server-epochs)", result.routed_shed_load),
        ("overloaded servers (baseline)", float(result.overloaded_servers)),
        ("baseline worst tail, fleet mean (ms)",
         result.baseline_tail_s * 1e3),
        ("routed worst tail, fleet mean (ms)", result.routed_tail_s * 1e3),
    ]
    return render_table(
        ("Metric", "Value"), rows, float_fmt=".2f",
        title="Fleet: power-aware routing vs clipped affinity "
              f"({result.num_servers} servers)")


def main(requests_per_core: Optional[int] = None) -> str:
    report = render(run_fleet_scenario(requests_per_core=requests_per_core))
    print(report)
    return report


if __name__ == "__main__":
    main()
