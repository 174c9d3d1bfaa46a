"""Power-aware router: conservation, caps, determinism, NaN overloads."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.artifacts import activate
from repro.fleet import routing
from repro.fleet.routing import (
    ANCHOR_LOADS,
    CAPACITY_CAP,
    EFFICIENCY_RANGE,
    PowerCurve,
    build_power_curves,
    route_epoch,
    run_routed_fleet,
)
from repro.workloads.apps import app_names

CURVE = PowerCurve(
    app="toy",
    loads=(0.05, 0.2, 0.4, 0.6, 0.9),
    powers_w=(40.0, 50.0, 65.0, 85.0, 130.0),
    tails_s=(0.001, 0.002, 0.004, 0.008, 0.020),
    freqs_hz=(1.2e9, 1.6e9, 2.0e9, 2.4e9, 3.0e9),
)


class TestPowerCurve:
    def test_interpolation_hits_anchors(self):
        assert CURVE.power_at(np.array(0.4)) == 65.0
        assert CURVE.tail_at(np.array(0.9)) == 0.020
        assert CURVE.freq_at(np.array(0.05)) == 1.2e9

    def test_segments_span_zero_to_last_anchor(self):
        segs = CURVE.segments()
        assert segs[0] == (0.0, 0.05, 0.0)  # flat below first anchor
        assert segs[-1][1] == 0.9
        for (_, hi, _), (lo, _, _) in zip(segs, segs[1:]):
            assert hi == lo

    def test_last_anchor_is_the_capacity_cap(self):
        # The router must never extrapolate: a flat segment past the
        # last anchor would read as free capacity.
        assert ANCHOR_LOADS[-1] == CAPACITY_CAP


class TestRouteEpoch:
    def _route(self, demands, eff=None):
        demands = np.asarray(demands, dtype=float)
        n = demands.shape[0]
        app_idx = np.zeros(n, dtype=np.int32)
        eff = np.ones(n) if eff is None else np.asarray(eff, dtype=float)
        return route_epoch(demands, app_idx, eff, (CURVE,))

    def test_demand_conserved_when_fleet_has_capacity(self):
        routed, shed = self._route([0.5, 0.1, 0.3])
        assert shed == 0.0
        assert math.isclose(routed.sum(), 0.9, rel_tol=0, abs_tol=1e-9)

    def test_cap_respected_and_excess_shed(self):
        routed, shed = self._route([1.2, 1.2])
        assert np.all(routed <= 0.9 + 1e-12)
        assert math.isclose(shed, 0.6, rel_tol=0, abs_tol=1e-9)

    def test_prefers_efficient_servers(self):
        # Same curve, server 1 burns 20% more per unit load: beyond the
        # shared flat segment, load concentrates on server 0.
        routed, _ = self._route([0.4, 0.4], eff=[1.0, 1.2])
        assert routed[0] > routed[1]

    def test_deterministic_ties_break_by_server_index(self):
        a, _ = self._route([0.3, 0.3, 0.3])
        b, _ = self._route([0.3, 0.3, 0.3])
        assert np.array_equal(a, b)
        # Identical servers: the flat first segment fills in index
        # order, so the allocation is monotone non-increasing.
        assert all(a[i] >= a[i + 1] - 1e-12 for i in range(len(a) - 1))

    def test_demand_never_crosses_app_groups(self):
        demands = np.array([1.0, 0.0])
        app_idx = np.array([0, 1], dtype=np.int32)
        routed, shed = route_epoch(demands, app_idx, np.ones(2),
                                   (CURVE, CURVE))
        assert routed[1] == 0.0  # app 1's idle server absorbs nothing
        assert math.isclose(shed, 0.1, rel_tol=0, abs_tol=1e-9)


@st.composite
def _fleets(draw):
    """Random demands, efficiencies and app assignments over curves
    anchored at ANCHOR_LOADS. Demands are 0 or >= 1e-6: the router
    stops at a 1e-12 residue, so a smaller group total is never routed."""
    def draw_n(elements, n):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    n_apps = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    demands = draw_n(st.just(0.0) | st.floats(1e-6, 1.5), n)
    eff = draw_n(st.floats(*EFFICIENCY_RANGE), n)
    app_idx = draw_n(st.integers(0, n_apps - 1), n).astype(np.int32)
    k = len(ANCHOR_LOADS)
    curves = tuple(
        PowerCurve(f"app{a}", ANCHOR_LOADS,
                   tuple(np.cumsum(draw_n(st.floats(1.0, 50.0), k))),
                   (0.0,) * k, (0.0,) * k)
        for a in range(n_apps))
    return demands, app_idx, eff, curves


class TestRouterConservation:
    @settings(max_examples=100, deadline=None)
    @given(_fleets())
    def test_routed_plus_shed_is_demand(self, fleet):
        demands, app_idx, eff, curves = fleet
        routed, shed = route_epoch(demands, app_idx, eff, curves)
        assert math.isclose(routed.sum() + shed, demands.sum(),
                            rel_tol=1e-9)
        for a in range(len(curves)):
            group = app_idx == a
            assert math.isclose(
                routed[group].sum(),
                min(demands[group].sum(), CAPACITY_CAP * group.sum()),
                rel_tol=1e-9)
        assert np.all(routed <= CAPACITY_CAP + 1e-12)


class TestBuildPowerCurves:
    def test_curves_cover_every_app_and_anchor(self):
        with activate() as store:  # a fresh per-test store
            curves = build_power_curves(seed=21, requests_per_core=100)
        # Calibration persists one cell per (app, anchor load).
        assert store.puts == len(ANCHOR_LOADS) * len(app_names())
        assert sorted(curves) == sorted(app_names())
        for curve in curves.values():
            assert curve.loads == ANCHOR_LOADS
            assert len(curve.powers_w) == len(ANCHOR_LOADS)
            # Server power grows with load.
            assert curve.powers_w[-1] > curve.powers_w[0] > 0


class TestRoutedScenario:
    def test_routing_saves_energy_and_absorbs_overload(self):
        result = run_routed_fleet(num_servers=40, seed=21, num_epochs=3,
                                  num_shards=2, requests_per_core=150)
        assert result.energy_savings_frac > 0
        assert result.routed_energy_j < result.baseline_energy_j
        # The heavy-tailed demand overloads some affinity servers; the
        # router redistributes, so it sheds no more than the baseline.
        assert result.baseline_shed_load > 0
        assert result.routed_shed_load <= result.baseline_shed_load
        assert result.overloaded_servers > 0
        assert result.overloaded_servers == result.state.overloaded_count()
        # NaN tails are counted, never averaged.
        assert math.isfinite(result.baseline_tail_s)
        assert math.isfinite(result.routed_tail_s)

    @pytest.mark.parametrize("bad", [
        dict(num_servers=0),
        dict(num_epochs=0),
        dict(base_load=math.nan),
        dict(demand_sigma=-0.5),
    ])
    def test_bad_inputs_raise_before_calibration(self, bad, monkeypatch):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(routing, "build_power_curves", calibrate)
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_routed_fleet(**bad)

    def test_final_epoch_state_is_consistent(self):
        result = run_routed_fleet(num_servers=30, seed=21, num_epochs=2,
                                  num_shards=3, requests_per_core=150)
        state = result.state
        assert state.num_servers == 30
        n_apps = len(app_names())
        assert np.array_equal(state.app_idx,
                              np.arange(30) % n_apps)
        assert np.all(state.load <= CAPACITY_CAP + 1e-12)
        assert np.all(state.seg_power_w > 0)
