"""Bad loads get a ``ValueError`` naming the argument at every public
entry point, before any simulation work runs; overload stays legal."""

import math

import pytest

from repro.coloc.batch import generate_mixes
from repro.coloc.server import run_colocated_server
from repro.experiments.common import compare_schemes, make_context
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE

BAD_LOADS = [0.0, -0.2, math.nan, math.inf, -math.inf]
MESSAGE = "load must be a finite fraction of saturation > 0"


@pytest.mark.parametrize("load", BAD_LOADS)
class TestRejectsBadLoads:
    def test_rate_for_load(self, load):
        with pytest.raises(ValueError, match=MESSAGE):
            MASSTREE.rate_for_load(load)

    def test_trace_generation(self, load):
        with pytest.raises(ValueError, match=MESSAGE):
            Trace.generate_at_load(MASSTREE, load, 50, seed=0)

    def test_compare_schemes(self, load):
        with pytest.raises(ValueError, match=MESSAGE):
            compare_schemes(MASSTREE, load, seeds=(1,), num_requests=50,
                            processes=1)

    def test_colocated_server(self, load):
        context = make_context(MASSTREE, 0, 100)
        with pytest.raises(ValueError, match=MESSAGE):
            run_colocated_server(MASSTREE, load, generate_mixes(1)[0],
                                 "StaticColoc", context,
                                 requests_per_core=50)


@pytest.mark.parametrize("load", [1.0, 1.5])
def test_overload_stays_legal(load):
    assert MASSTREE.rate_for_load(load) == load * MASSTREE.saturation_qps
    assert len(Trace.generate_at_load(MASSTREE, load, 50, seed=0)) == 50
