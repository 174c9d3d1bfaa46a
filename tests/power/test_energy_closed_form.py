"""The energy meter against the power model's closed form.

A hand-built run at one fixed frequency ``f``: each request ``i`` has
known compute cycles ``c_i`` and memory time ``m_i``, and arrives after
the previous one has finished, so it is served alone for
``s_i = c_i / f + m_i`` and the core sleeps in every gap. The meter must
then read

    energy_j     = sum_i P(f, m_i / s_i) * s_i + sleep_power_w * idle_s
    busy_time_s  = sum_i s_i
    total_time_s = the last completion (the run starts at t = 0)

with ``idle_s = total_time_s - busy_time_s`` and ``P`` the model's busy
power, ``C_eff V(f)^2 f ((1 - phi) + a phi) + k V(f)^e`` (written out
below from ``CorePowerModel``'s coefficients, not through the meter).
The run goes through the Python event loop and, when the native
library loads, through the C span loop (``FixedFrequency`` takes it
with no LC policy).
"""

from unittest import mock

import numpy as np
import pytest

from repro.core._native import build
from repro.core._native.session import NativeRunSession
from repro.power.model import CorePowerModel
from repro.schemes.base import SchemeContext
from repro.schemes.fixed import FixedFrequency
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.server import serve
from repro.sim.trace import Trace

MODEL = CorePowerModel()
CONTEXT = SchemeContext(latency_bound_s=1e-3)
#: A grid step off nominal: setup's request leaves a transition in
#: flight, applied while the core still sleeps before the first arrival.
FREQ = CONTEXT.dvfs.frequencies[3]

#: Arrivals (s), compute cycles and memory time (s) of each request:
#: compute-only, memory-only and mixed requests, each served alone.
ARRIVALS = np.array([1e-3, 3e-3, 4.5e-3, 8e-3, 9.25e-3])
CYCLES = np.array([4e5, 1.2e6, 0.0, 7.5e5, 2e5])
MEMORY = np.array([0.0, 1e-4, 3e-4, 2.5e-4, 4e-5])

#: The meter sums per closed segment, in event order, and the closed
#: form per request: sums of a dozen doubles, which agree to a few ulps
#: (about 1e-15 relative). The smallest term, one request's busy
#: energy, is over 1% of the total, so 1e-12 still catches a wrong one.
REL_TOL = 1e-12


def closed_form():
    """(energy_j, busy_time_s, total_time_s) from the model's formula."""
    curve = MODEL.curve
    frac = (FREQ - curve.f_min_hz) / (curve.f_max_hz - curve.f_min_hz)
    volts = curve.v_min + frac ** curve.shape * (curve.v_max - curve.v_min)
    service = CYCLES / FREQ + MEMORY
    assert (ARRIVALS[:-1] + service[:-1] < ARRIVALS[1:]).all()  # no queue
    stall = MEMORY / service
    activity = (1.0 - stall) + MODEL.stall_activity * stall
    power = (MODEL.c_eff_farads * volts ** 2 * FREQ * activity
             + MODEL.leak_w_per_vk * volts ** MODEL.leak_exponent)
    busy_energy = power * service
    busy = float(service.sum())
    total = float(ARRIVALS[-1] + service[-1])
    idle_energy = MODEL.sleep_power_w * (total - busy)
    assert busy_energy.min() > 0.01 * (busy_energy.sum() + idle_energy)
    return float(busy_energy.sum() + idle_energy), busy, total


def metered(native: bool):
    """(energy_j, busy_time_s, total_time_s) of the run's meter, and
    whether the span loop served it."""
    sessions = []
    real_run = NativeRunSession.run

    def counting_run(self):
        sessions.append(self)
        real_run(self)

    sim = Simulator()
    core = Core(sim, CONTEXT.dvfs, MODEL)
    loader = (build.load_library if native else lambda: None)
    with mock.patch.object(build, "load_library", loader), \
            mock.patch.object(NativeRunSession, "run", counting_run):
        serve(sim, core, FixedFrequency(FREQ), CONTEXT,
              Trace(ARRIVALS, CYCLES, MEMORY))
    core.finalize(settle_dvfs=True)
    meter = core.meter
    return (meter.energy_j, meter.busy_time_s, meter.total_time_s), \
        bool(sessions)


LOOPS = ["python", pytest.param("native", marks=[
    pytest.mark.native,
    pytest.mark.skipif(not build.available(),
                       reason="native library unavailable")])]


@pytest.mark.parametrize("loop", LOOPS)
def test_meter_equals_closed_form(loop):
    got, on_span_loop = metered(loop == "native")
    assert on_span_loop == (loop == "native")
    assert got == pytest.approx(closed_form(), rel=REL_TOL, abs=0.0)
