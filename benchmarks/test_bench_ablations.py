"""Bench: Rubik design-choice ablations (DESIGN.md; not a paper figure)."""

from repro.experiments import ablations

N = 5000


def test_ablations():
    res = ablations.run_ablations(num_requests=N)
    print("\n" + res.table())
    paper = res.rows["Rubik (paper config)"]
    # Every Rubik variant still honours the bound (the analytical model,
    # not any single knob, provides the guarantee).
    for name, vals in res.rows.items():
        if name.startswith("Pegasus"):
            continue  # feedback-only control has no guarantee
        assert vals["violations"] <= 0.07, name
    # Feedback buys extra savings over the conservative base.
    assert paper["savings"] >= res.rows["no feedback"]["savings"] - 0.01
    # Coarse feedback alone (Pegasus) cannot beat Rubik.
    assert paper["savings"] > res.rows["Pegasus (feedback only)"]["savings"]
