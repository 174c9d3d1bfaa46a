"""Bench: regenerate Fig. 6 (core power savings matrix)."""

from repro.experiments import fig06_power_savings

N = 4000  # per run; full paper counts are used in EXPERIMENTS.md runs


def test_fig6_power_savings():
    res = fig06_power_savings.run_fig6(num_requests=N, seeds=(21,))
    print("\n" + res.table())
    # Headline shapes (paper Sec. 5.2):
    # 1. At 50% load StaticOracle saves nothing...
    assert abs(res.mean_savings(0.5, "StaticOracle")) < 0.03
    # ...AdrenalineOracle saves little...
    assert res.mean_savings(0.5, "AdrenalineOracle") < 0.08
    # ...Rubik still saves meaningfully.
    assert res.mean_savings(0.5, "Rubik") > 0.08
    # 2. Rubik's mean savings at 30% load are substantial.
    assert res.mean_savings(0.3, "Rubik") > 0.25
    # 3. Rubik beats StaticOracle at every load on average.
    for load in res.loads:
        assert res.mean_savings(load, "Rubik") > \
            res.mean_savings(load, "StaticOracle")
