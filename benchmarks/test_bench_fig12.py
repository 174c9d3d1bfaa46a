"""Bench: regenerate Fig. 12 (full-system power savings at 30% load)."""

from repro.experiments import fig12_system_power

N = 4000


def test_fig12_system_power():
    res = fig12_system_power.run_fig12(num_requests=N)
    print("\n" + res.table())
    for app in res.per_app:
        # System savings are positive but much smaller than core savings
        # (idle platform power dominates — the RubikColoc motivation).
        assert 0.0 < res.per_app[app] < 0.25, app
        assert res.per_app[app] < res.core_savings[app] * 0.6, app
