"""Bench: regenerate Table 1 (latency-correlation analysis)."""

from repro.experiments import table1_correlations

N = 6000


def test_table1_correlations():
    res = table1_correlations.run_table1(num_requests=N)
    print("\n" + res.table())
    for app, (svc, qps, queue) in res.per_app.items():
        # Queue length is the dominant predictor for every app.
        assert queue >= max(svc, qps), app
        assert queue > 0.55, app
    # Tight-service apps: service time carries ~no information.
    assert res.per_app["masstree"][0] < 0.25
    # Variable-service apps: service time matters more.
    assert res.per_app["shore"][0] > res.per_app["masstree"][0]
