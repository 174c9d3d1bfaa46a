"""Bench: regenerate Fig. 10 (responsiveness to load steps)."""

from repro.experiments import fig10_load_steps


def _run(app):
    # Shortened 6 s schedule (paper uses 12 s); same step structure.
    return fig10_load_steps.run_step_response(app, total_time_s=6.0)


def test_fig10_masstree():
    res = _run("masstree")
    print("\n" + res.table())
    # After the 75% step the oracles tuned at 25% load blow past the
    # bound; Rubik degrades least (paper Sec. 5.4).
    rubik = res.max_tail_after_step("Rubik")
    static = res.max_tail_after_step("StaticOracle")
    adren = res.max_tail_after_step("AdrenalineOracle")
    assert rubik < static
    assert rubik < adren
    assert rubik < res.bound_ms * 2.0  # minimal degradation


def test_fig10_xapian():
    res = _run("xapian")
    print("\n" + res.table())
    assert res.max_tail_after_step("Rubik") < \
        res.max_tail_after_step("StaticOracle")
