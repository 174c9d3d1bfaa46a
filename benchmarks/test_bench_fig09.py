"""Bench: regenerate Fig. 9 (trace-driven load sweeps).

The full figure is 5 apps x 9 loads x 5 schemes; the bench runs two
representative apps (tight masstree, variable shore) over a reduced load
grid — EXPERIMENTS.md records a full run.
"""

from repro.experiments import fig09_load_sweep

LOADS = (0.2, 0.4, 0.5, 0.7)
N = 3000


def _sweep(app):
    return fig09_load_sweep.run_load_sweep(app, loads=LOADS,
                                           num_requests=N)


def test_fig9_masstree():
    res = _sweep("masstree")
    print("\n" + res.table())
    idx = {ld: i for i, ld in enumerate(res.loads)}
    # Flat adaptive tail below 50% load vs rising fixed tail.
    for scheme in ("StaticOracle", "Rubik"):
        assert res.tail_ms[scheme][idx[0.4]] <= res.bound_ms * 1.15
    # DynamicOracle is the energy envelope at low load.
    assert res.energy_mj["DynamicOracle"][idx[0.2]] <= min(
        res.energy_mj[s][idx[0.2]]
        for s in ("Fixed", "StaticOracle", "Rubik")) * 1.05
    # Rubik tracks DynamicOracle for tightly-clustered service times.
    assert res.energy_mj["Rubik"][idx[0.4]] <= \
        res.energy_mj["StaticOracle"][idx[0.4]]


def test_fig9_shore():
    res = _sweep("shore")
    print("\n" + res.table())
    idx = {ld: i for i, ld in enumerate(res.loads)}
    # With variable service times Rubik guards against long requests and
    # gives up part of DynamicOracle's savings (paper Sec. 5.3).
    assert res.energy_mj["Rubik"][idx[0.4]] >= \
        res.energy_mj["DynamicOracle"][idx[0.4]]
    # Above the bound load all schemes' tails rise (shaded region).
    assert res.tail_ms["Rubik"][idx[0.7]] > res.bound_ms
