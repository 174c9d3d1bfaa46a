"""Bench: regenerate Fig. 1 (intro teaser — Rubik vs StaticOracle)."""

from repro.experiments import fig01_intro

N = 4000


def test_fig1a_energy_per_request():
    res = fig01_intro.run_fig1a(num_requests=N)
    print("\n" + res.table())
    # Shape: Rubik below StaticOracle at every load.
    assert all(r < s for r, s in zip(res.rubik_mj, res.static_oracle_mj))


def test_fig1b_load_step():
    res = fig01_intro.run_fig1b(num_requests=N)
    print("\n" + res.table())
    # Shape: Rubik's post-step tail stays at/below ~the bound.
    post = res.rubik_tail_ms[res.rubik_window_times > 1.2]
    assert post.max() <= res.bound_ms * 1.35
