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


class _ListWalks:
    """One round of trial reductions at a time, walked on Python lists.

    Plain lists keep the walk's scalar indexing off the ndarray boxing
    path. ``bad[j]`` is request ``j``'s violation flag,
    ``finish_l[j] - arr_l[j] > bound``, kept in step with ``finish_l``.
    :class:`_NativeWalks` runs the same walk in C.
    """

    def __init__(self, trace: Trace, grid, freqs: np.ndarray,
                 finish: np.ndarray, late: np.ndarray, bound: float,
                 budget: int) -> None:
        self.grid = grid
        self.step_of = {f: i for i, f in enumerate(grid)}
        self.bound = bound
        self.budget = budget
        self.viol = int(np.sum(late))
        self.arr_l = trace.arrivals.tolist()
        self.cyc_l = trace.compute_cycles.tolist()
        self.mem_l = trace.memory_time_s.tolist()
        self.finish_l = finish.tolist()
        self.freqs_l = freqs.tolist()
        self.bad = late.tolist()

    def freqs(self) -> np.ndarray:
        """The current schedule, as a new array."""
        return np.asarray(self.freqs_l)

    def round(self, order: np.ndarray) -> int:
        """Try each request of ``order`` one grid step lower; returns the
        number of reductions kept."""
        grid, step_of, bound = self.grid, self.step_of, self.bound
        arr_l, cyc_l, mem_l = self.arr_l, self.cyc_l, self.mem_l
        finish_l, freqs_l, bad = self.finish_l, self.freqs_l, self.bad
        n = len(arr_l)
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
            if self.viol + delta_viol <= self.budget:
                finish_l[i:j] = new_finish
                bad[i:j] = new_bad
                freqs_l[i] = lower
                self.viol += delta_viol
                accepted += 1
        return accepted


class _NativeWalks:
    """:class:`_ListWalks` with each round one ``rk_dyn_round`` call,
    which updates ``freqs``, ``steps`` (grid indices), ``finish``,
    ``bad`` and ``viol`` in place."""

    def __init__(self, lib, trace: Trace, grid, freqs: np.ndarray,
                 finish: np.ndarray, late: np.ndarray, bound: float,
                 budget: int) -> None:
        self._round = lib.rk_dyn_round
        self.bound = bound
        self.budget = budget
        # Every array C reads or writes is held here, its address taken
        # once.
        self.columns = [np.ascontiguousarray(column, dtype=np.float64)
                        for column in (trace.arrivals, trace.compute_cycles,
                                       trace.memory_time_s, grid)]
        self.viol = np.array([np.sum(late)], dtype=np.int64)
        self._freqs = np.array(freqs, dtype=np.float64)
        grid_arr = self.columns[-1]
        self.steps = np.searchsorted(grid_arr, self._freqs).astype(np.int64)
        self.finish = np.array(finish, dtype=np.float64)
        self.bad = np.array(late, dtype=np.bool_)
        self._trial = (np.empty(len(trace)),
                       np.empty(len(trace), dtype=np.bool_))
        self._head = (len(trace), *(c.ctypes.data for c in self.columns))
        self._tail = tuple(a.ctypes.data for a in (
            self.viol, self._freqs, self.steps, self.finish, self.bad,
            *self._trial))

    def freqs(self) -> np.ndarray:
        """The current schedule (updated in place by each round)."""
        return self._freqs

    def round(self, order: np.ndarray) -> int:
        """Try each request of ``order`` one grid step lower; returns the
        number of reductions kept."""
        order = np.ascontiguousarray(order, dtype=np.int64)
        return self._round(*self._head, order.ctypes.data, order.size,
                           self.bound, self.budget, *self._tail)


def dynamic_oracle_schedule(
    trace: Trace,
    context: SchemeContext,
    max_rounds: int = 20,
) -> np.ndarray:
    """Compute DynamicOracle's per-request frequency schedule.

    Each round's trial walks run in the native library when it loads,
    and as a Python loop otherwise; both make the same float operations
    in the same order.
    """
    bound = context.latency_bound_s
    grid = context.dvfs.frequencies
    n = len(trace)
    budget = int((1.0 - context.tail_percentile / 100.0) * n)

    static_hz = find_static_frequency(trace, bound, context)
    freqs = np.full(n, static_hz)
    finish = lindley_finish_times(trace.arrivals, service_times(trace, freqs))
    late = finish - trace.arrivals > bound

    grid_arr = np.asarray(grid, dtype=float)
    power_arr = np.array([DEFAULT_CORE_POWER.busy_power(f) for f in grid])

    # Imported on first use: the ctypes mirror costs start-up time in
    # processes that never run an oracle.
    from repro.core._native.kernel import oracle_library

    lib = oracle_library()
    if lib is None:
        walks = _ListWalks(trace, grid, freqs, finish, late, bound, budget)
    else:
        walks = _NativeWalks(lib, trace, grid, freqs, finish, late, bound,
                             budget)

    for _ in range(max_rounds):
        freqs = walks.freqs()
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
        if walks.round(order) == 0:
            break
    return walks.freqs()


def evaluate_dynamic_oracle(
    trace: Trace,
    context: SchemeContext,
    max_rounds: int = 20,
) -> ReplayResult:
    """Schedule + analytic replay of DynamicOracle on ``trace``."""
    freqs = dynamic_oracle_schedule(trace, context, max_rounds)
    return replay(trace, freqs)
