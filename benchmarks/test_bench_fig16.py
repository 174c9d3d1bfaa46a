"""Bench: regenerate Fig. 16 (datacenter power and server count)."""

from repro.experiments import fig16_datacenter

LOADS = (0.1, 0.3, 0.6)


def test_fig16_datacenter():
    res = fig16_datacenter.run_fig16(loads=LOADS, num_mixes=2,
                                     requests_per_core=700)
    print("\n" + res.table())
    low, mid, high = res.comparisons
    # Colocation always wins, and wins more at low LC load.
    for comp in res.comparisons:
        assert comp.power_reduction > 0
        assert comp.server_reduction > 0
    assert low.server_reduction > high.server_reduction
    # Paper headline at 10% load: ~31% power, ~41% fewer servers.
    assert low.power_reduction > 0.2
    assert low.server_reduction > 0.3
    # Colocation still helps at 60% load (paper: 17% power, 19% servers).
    assert high.power_reduction > 0.08
