"""Bench: regenerate Fig. 2 (workload variability analysis)."""

from repro.experiments import fig02_variability

N = 6000


def test_fig2a_instantaneous_qps():
    res = fig02_variability.run_fig2a(num_requests=N)
    print("\n" + res.table())
    # Instantaneous load varies substantially around the mean for every
    # app; the spread narrows with request rate (Poisson window counts
    # concentrate as 1/sqrt(rate*window)), so the "nearly zero to more
    # than twice the average" extremes show on the lower-rate apps.
    for app, vals in res.per_app.items():
        assert vals[-1] > 1.25, app
        assert vals[0] < 0.8, app
    assert any(vals[-1] > 2.0 for vals in res.per_app.values())
    assert any(vals[0] < 0.4 for vals in res.per_app.values())


def test_fig2b_masstree_trace():
    res = fig02_variability.run_fig2b(num_requests=N)
    print("\n" + res.table())
    assert len(res.times) > 4


def test_fig2c_normalized_tail():
    res = fig02_variability.run_fig2c(num_requests=N)
    print("\n" + res.table())
    # Queueing dominates: normalized tail well above 1 by 50% load, and
    # specjbb is the most queueing-amplified app (paper Fig. 2c).
    idx50 = res.loads.index(0.5)
    for app, vals in res.per_app.items():
        assert vals[idx50] > 1.8, app
    assert res.per_app["specjbb"][idx50] == max(
        v[idx50] for v in res.per_app.values())
