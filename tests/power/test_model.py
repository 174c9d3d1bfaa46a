"""Tests for the power models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NOMINAL_FREQUENCY_HZ, frequency_grid
from repro.power.model import (
    CorePowerModel,
    CoreState,
    DEFAULT_CORE_POWER,
    PlatformPowerModel,
    SystemPowerModel,
    VoltageFrequencyCurve,
    nominal_busy_power_w,
)

freqs = st.floats(min_value=0.8e9, max_value=3.4e9)


class TestVoltageCurve:
    def test_endpoints(self):
        c = VoltageFrequencyCurve()
        assert c.voltage(c.f_min_hz) == pytest.approx(c.v_min)
        assert c.voltage(c.f_max_hz) == pytest.approx(c.v_max)

    def test_clamps_out_of_range(self):
        c = VoltageFrequencyCurve()
        assert c.voltage(0.1e9) == c.v_min
        assert c.voltage(10e9) == c.v_max

    @given(freqs, freqs)
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, f1, f2):
        c = VoltageFrequencyCurve()
        if f1 <= f2:
            assert c.voltage(f1) <= c.voltage(f2) + 1e-12

    def test_superlinear_shape(self):
        """shape>1: mid-frequency voltage sits below the linear chord."""
        c = VoltageFrequencyCurve()
        mid = (c.f_min_hz + c.f_max_hz) / 2
        linear = (c.v_min + c.v_max) / 2
        assert c.voltage(mid) < linear

    def test_validation(self):
        with pytest.raises(ValueError):
            VoltageFrequencyCurve(f_min_hz=0)
        with pytest.raises(ValueError):
            VoltageFrequencyCurve(v_min=0)
        with pytest.raises(ValueError):
            VoltageFrequencyCurve(shape=0)


class TestCorePower:
    def test_monotone_in_frequency(self):
        grid = frequency_grid()
        powers = [DEFAULT_CORE_POWER.busy_power(f) for f in grid]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_convexity(self):
        """P(f) superlinear: doubling frequency more than doubles power —
        the property all DVFS savings derive from."""
        pm = DEFAULT_CORE_POWER
        assert pm.busy_power(3.2e9) > 2 * pm.busy_power(1.6e9)

    def test_nominal_calibration(self):
        """~4-5 W active at nominal (gives ~1.1 mJ/request for masstree,
        matching paper Fig. 9b)."""
        assert 3.5 <= nominal_busy_power_w() <= 5.5

    def test_memory_stalls_reduce_power(self):
        pm = DEFAULT_CORE_POWER
        assert pm.busy_power(2.4e9, 0.5) < pm.busy_power(2.4e9, 0.0)

    def test_sleep_power_small(self):
        pm = DEFAULT_CORE_POWER
        assert pm.power(CoreState.IDLE, 2.4e9) < 0.2
        assert pm.power(CoreState.IDLE, 2.4e9) == pm.sleep_power_w

    def test_busy_states_equal_power(self):
        pm = DEFAULT_CORE_POWER
        assert pm.power(CoreState.BUSY, 2e9, 0.1) == pytest.approx(
            pm.power(CoreState.BATCH, 2e9, 0.1))

    def test_energy_per_cycle_decreases_at_low_freq(self):
        pm = DEFAULT_CORE_POWER
        assert pm.energy_per_cycle(0.8e9) < pm.energy_per_cycle(2.4e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorePowerModel(c_eff_farads=0)
        with pytest.raises(ValueError):
            CorePowerModel(stall_activity=2.0)
        with pytest.raises(ValueError):
            DEFAULT_CORE_POWER.busy_power(2e9, mem_stall_frac=1.5)


class TestPlatformAndSystem:
    def test_platform_monotone_in_utilization(self):
        p = PlatformPowerModel()
        assert p.power(0.0) < p.power(0.5) < p.power(1.0)

    def test_platform_idle_floor_dominates(self):
        """The RubikColoc motivation: platform idle power is significant
        relative to per-core DVFS savings."""
        p = PlatformPowerModel()
        assert p.power(0.0) > 4 * nominal_busy_power_w()

    def test_platform_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            PlatformPowerModel().power(1.5)

    def test_server_power_composition(self):
        s = SystemPowerModel()
        total = s.server_power(per_core_power_w=2.0, utilization=0.5)
        assert total == pytest.approx(
            s.num_cores * 2.0 + s.platform.power(0.5))
