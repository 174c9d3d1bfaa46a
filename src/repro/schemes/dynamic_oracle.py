"""DynamicOracle (paper Sec. 5.3).

The per-request frequency schedule that minimizes power subject to the
tail bound, computed with full knowledge of the trace:

1. Start from a globally feasible schedule — every request at the lowest
   *static* frequency that meets the bound (StaticOracle's choice), so
   DynamicOracle's energy is upper-bounded by StaticOracle's from the
   first step.
2. Progressively reduce per-request frequencies until the allowed 5% of
   requests exceed the bound, prioritizing the reductions that save the
   most energy (the paper's construction).

Reductions are evaluated with an *incremental* Lindley update: lowering
request ``i``'s frequency only delays requests until the busy period
containing ``i`` drains, so each trial touches a short suffix instead of
the whole trace.
"""

from __future__ import annotations

import numpy as np

from repro.power.model import DEFAULT_CORE_POWER
from repro.schemes.base import SchemeContext
from repro.schemes.replay import (
    ReplayResult,
    lindley_finish_times,
    replay,
    service_times,
)
from repro.schemes.static_oracle import find_static_frequency
from repro.sim.trace import Trace


def dynamic_oracle_schedule(
    trace: Trace,
    context: SchemeContext,
    max_rounds: int = 20,
) -> np.ndarray:
    """Compute DynamicOracle's per-request frequency schedule."""
    bound = context.latency_bound_s
    grid = context.dvfs.frequencies
    n = len(trace)
    budget = int((1.0 - context.tail_percentile / 100.0) * n)

    static_hz = find_static_frequency(trace, bound, context)
    freqs = np.full(n, static_hz)
    finish = lindley_finish_times(trace.arrivals, service_times(trace, freqs))
    late = finish - trace.arrivals > bound
    viol = int(np.sum(late))

    step_of = {f: i for i, f in enumerate(grid)}
    grid_arr = np.asarray(grid, dtype=float)
    power_arr = np.array([DEFAULT_CORE_POWER.busy_power(f) for f in grid])

    # The trial walk below runs per candidate per round; plain lists keep
    # its scalar indexing off the ndarray boxing path. ``freqs``/``finish``
    # live as lists inside the loop and are re-materialized as arrays for
    # the vectorized ranking each round. ``bad[j]`` is request ``j``'s
    # violation flag, ``finish_l[j] - arr_l[j] > bound``, kept in step
    # with ``finish_l``.
    arr_l = trace.arrivals.tolist()
    cyc_l = trace.compute_cycles.tolist()
    mem_l = trace.memory_time_s.tolist()
    finish_l = finish.tolist()
    freqs_l = freqs.tolist()
    bad = late.tolist()

    for _ in range(max_rounds):
        freqs = np.asarray(freqs_l)
        # Rank one-step reductions by energy saved (larger first),
        # vectorized over the whole trace: energy-per-request at the
        # current and next-lower grid step, same float arithmetic as the
        # scalar formulation (power * cycles / freq).
        steps = np.searchsorted(grid_arr, freqs)
        reducible = steps > 0
        lower_steps = np.maximum(steps - 1, 0)
        e_now = power_arr[steps] * trace.compute_cycles / freqs
        e_low = (power_arr[lower_steps] * trace.compute_cycles
                 / grid_arr[lower_steps])
        saving = e_now - e_low
        cand = np.flatnonzero(reducible & (saving > 0))
        if cand.size == 0:
            break
        # Descending (saving, index) — matches sorted(..., reverse=True)
        # on (saving, i) tuples, ties broken toward the later request.
        order = cand[np.lexsort((-cand, -saving[cand]))]

        accepted = 0
        for i in order.tolist():
            s = step_of[freqs_l[i]]
            if s == 0:
                continue
            lower = grid[s - 1]
            # Trial: slow request i to ``lower`` and walk the finish-time
            # change down its busy period, counting the violation change
            # as it goes. Nothing is written unless the trial is kept.
            prev = finish_l[i - 1] if i > 0 else -np.inf
            a = arr_l[i]
            start = a if a > prev else prev
            prev = start + cyc_l[i] / lower + mem_l[i]
            new_finish = [prev]
            new_bad = [prev - a > bound]
            delta_viol = new_bad[0] - bad[i]
            j = i + 1
            while j < n:
                a = arr_l[j]
                start = a if a > prev else prev
                new_f = start + cyc_l[j] / freqs_l[j] + mem_l[j]
                if new_f == finish_l[j]:
                    break  # busy period drained; suffix unchanged
                flag = new_f - a > bound
                delta_viol += flag - bad[j]
                new_finish.append(new_f)
                new_bad.append(flag)
                prev = new_f
                j += 1
            if viol + delta_viol <= budget:
                finish_l[i:j] = new_finish
                bad[i:j] = new_bad
                freqs_l[i] = lower
                viol += delta_viol
                accepted += 1
        if accepted == 0:
            break
    return np.asarray(freqs_l)


def evaluate_dynamic_oracle(
    trace: Trace,
    context: SchemeContext,
    max_rounds: int = 20,
) -> ReplayResult:
    """Schedule + analytic replay of DynamicOracle on ``trace``."""
    freqs = dynamic_oracle_schedule(trace, context, max_rounds)
    return replay(trace, freqs)
