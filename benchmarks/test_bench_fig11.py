"""Bench: regenerate Fig. 11 (real-system evaluation, 130 us DVFS lag)."""

from repro.experiments import fig11_real_system

N = 4000


def test_fig11_real_system():
    res = fig11_real_system.run_fig11(num_requests=N)
    print("\n" + res.table())
    assert res.rubik_meets_bound
    # masstree (short requests): DVFS lag erodes Rubik's edge as load
    # grows — the gap at 50% is smaller than at 30% (paper Sec. 5.5).
    m30 = res.savings["masstree"][0.3]
    m50 = res.savings["masstree"][0.5]
    gap30 = m30["Rubik"] - m30["StaticOracle"]
    gap50 = m50["Rubik"] - m50["StaticOracle"]
    assert gap30 > gap50 - 0.02
    # moses (long requests): Rubik keeps a wide edge even at 50% load.
    mo50 = res.savings["moses"][0.5]
    assert mo50["Rubik"] > mo50["StaticOracle"] + 0.05
    # Rubik saves substantial power at low load (paper: 51% for moses).
    assert res.savings["moses"][0.3]["Rubik"] > 0.2
