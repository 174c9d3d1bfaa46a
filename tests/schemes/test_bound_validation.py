"""Non-finite or non-positive latency bounds, and non-finite replay
frequencies, get a ``ValueError`` naming the value at every entry point.

A NaN bound passes every ``<=``/``>`` range check, and each oracle read
it its own way: StaticOracle fell through to the maximum frequency
(``tail <= nan`` is never true) while AdrenalineOracle took the slowest
setting (``tail > nan`` is never true either). An infinite frequency
gave a finite tail with infinite energy.
"""

import math
import re

import pytest

from repro.experiments.common import make_context
from repro.schemes.adrenaline import tune_adrenaline
from repro.schemes.base import SchemeContext
from repro.schemes.replay import replay
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE

BAD_BOUNDS = [0.0, -1e-3, math.nan, math.inf, -math.inf]


def named(value) -> str:
    return re.escape(f"got {value!r}")


@pytest.fixture(scope="module")
def setup():
    return (make_context(MASSTREE, 0, 100),
            Trace.generate_at_load(MASSTREE, 0.4, 100, seed=0))


@pytest.mark.parametrize("bound", BAD_BOUNDS)
class TestRejectsBadBounds:
    def test_scheme_context(self, bound):
        with pytest.raises(ValueError, match=named(bound)):
            SchemeContext(latency_bound_s=bound)

    def test_find_static_frequency(self, setup, bound):
        context, trace = setup
        with pytest.raises(ValueError, match=named(bound)):
            find_static_frequency(trace, bound, context)

    def test_tune_adrenaline(self, setup, bound):
        context, trace = setup
        with pytest.raises(ValueError, match=named(bound)):
            tune_adrenaline([trace, trace], context,
                            bounds_s=[context.latency_bound_s, bound])


@pytest.mark.parametrize("freqs, bad", [
    (math.nan, math.nan),
    (math.inf, math.inf),
    ([2.4e9, math.nan, 2.4e9, 2.4e9], math.nan),
], ids=["nan", "inf", "nan-in-schedule"])
def test_replay_rejects_non_finite_frequency(freqs, bad):
    trace = Trace.generate_at_load(MASSTREE, 0.4, 4, seed=0)
    with pytest.raises(ValueError, match=named(bad)):
        replay(trace, freqs)
