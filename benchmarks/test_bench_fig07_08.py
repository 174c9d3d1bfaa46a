"""Bench: regenerate Figs. 7 and 8 (latency CDFs + frequency histograms)."""

from repro.experiments import fig07_fig08_cdfs

N = 5000


def test_fig7_masstree():
    res = fig07_fig08_cdfs.run_fig7(num_requests=N)
    print("\n" + res.table())
    rubik = res.cdf_quantiles_ms["Rubik"]
    static = res.cdf_quantiles_ms["StaticOracle"]
    # Rubik delays short requests (low percentiles shift right)...
    assert rubik[0] > static[0]
    # ...while the tail stays at the bound.
    assert rubik[-2] <= res.bound_ms * 1.10  # p95 column
    # Most busy time at low frequencies (Fig. 7b).
    low = sum(v for f, v in res.rubik_freq_hist.items() if f <= 1.6e9)
    assert low > 0.5


def test_fig8_xapian():
    res = fig07_fig08_cdfs.run_fig8(num_requests=N)
    print("\n" + res.table())
    rubik = res.cdf_quantiles_ms["Rubik"]
    static = res.cdf_quantiles_ms["StaticOracle"]
    # Variable service times -> smaller (but present) low-end shift.
    assert rubik[0] > static[0]
    assert rubik[-2] <= res.bound_ms * 1.10
