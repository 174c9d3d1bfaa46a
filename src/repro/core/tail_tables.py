"""Target tail tables (paper Sec. 4.1--4.2, Fig. 5).

A :class:`TailTable` answers, in O(1) per query: *given that the running
request has already executed elapsed work* ``w`` *and that request* ``i``
*is i-th in line, what is the tail (e.g. 95th-percentile) total work until
request i completes?*

Construction (periodic, not per-event):

* Rows condition the running request's distribution on elapsed work. Rows
  are bounded by quantiles of the base distribution (paper: octiles); a
  lookup uses the row whose band contains the observed elapsed work, and
  each row is built by conditioning on the band's *lower* edge, which
  over-estimates remaining work (conservative, never violates the bound).
* Columns walk the queue: column ``i`` holds the tail of
  ``S_i = S_0 + S + ... + S`` (i-fold convolution, paper Eq. in Sec. 4.1).
* Beyond ``max_explicit`` columns, Lyapunov's CLT gives
  ``S_i ~ N(E[S_0] + i E[S], var[S_0] + i var[S])`` (paper: i >= 16).

The build shares work across cells: cell ``(r, i)`` is the quantile of
``cond_r * base^(*i)`` (``*`` denoting convolution), so each cell is one
multiply by a shared power of the base's transform and one inverse FFT,
instead of a chain of sequential convolutions. And it builds only what
is read: construction computes the row bounds alone (or takes them
from the caller: the native span loop's C computes them), and each row
is conditioned and extended on first read, to the deepest position read —
a refresh's controller typically reads one to three rows a few
positions deep. This is what keeps the paper's periodic refresh at the
~0.2 ms scale.

Two tables are kept: compute cycles (c_i) and memory-bound time (m_i); the
controller combines their tails via the paper's triangle-inequality
approximation (Eq. 2).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.histogram import Histogram, _normal_quantile

#: Paper implementation uses octile rows and 16 explicit queue positions.
DEFAULT_NUM_ROWS = 8
DEFAULT_MAX_EXPLICIT = 16


class TailTable:
    """Tail-of-completion-work table for one demand type, built one row
    at a time on first read."""

    def __init__(
        self,
        base: Histogram,
        quantile: float = 0.95,
        num_rows: int = DEFAULT_NUM_ROWS,
        max_explicit: int = DEFAULT_MAX_EXPLICIT,
        row_bounds: Optional[List[float]] = None,
    ) -> None:
        """Args:
            base: distribution of per-request demand, ``P[S = c]``.
            quantile: tail percentile as a fraction (0.95 for the paper).
            num_rows: elapsed-work bands (paper: octiles).
            max_explicit: queue positions computed by convolution; deeper
                positions use the Gaussian approximation.
            row_bounds: the ``num_rows`` row bounds this constructor
                would compute, as python floats, when the caller has
                them (the native span loop's C computes them with the
                same arithmetic, ``rk_row_bounds``); the list is kept.
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if num_rows <= 0 or max_explicit <= 0:
            raise ValueError("num_rows and max_explicit must be positive")
        self.base = base
        self.quantile = quantile
        self.num_rows = num_rows
        self.max_explicit = max_explicit

        # Row boundaries: elapsed-work quantiles of the base distribution.
        # Row r covers elapsed in [bounds[r], bounds[r+1]); row 0 is w = 0.
        # One searchsorted over the base CDF does Histogram.quantile's
        # arithmetic for every bound at once (same epsilon, same cap at
        # the last bucket, same upper bucket edge).
        if row_bounds is None:
            idx = base.cumulative().searchsorted(
                np.arange(1, num_rows) / num_rows - 1e-12)
            np.minimum(idx, base.pmf.size - 1, out=idx)
            self.row_bounds = np.concatenate(([0.0],
                                              (idx + 1) * base.bucket_width))
            row_bounds = self.row_bounds.tolist()
        elif len(row_bounds) != num_rows:
            raise ValueError(f"row_bounds must hold num_rows={num_rows} "
                             f"bounds (got {len(row_bounds)})")
        # Python-float mirror for bisect in the per-event fast path (same
        # ordering semantics as np.searchsorted side="right").
        self._row_bounds_list = row_bounds

        # Everything else is built per row on first read: a refresh's
        # controller typically reads one to three rows a few positions
        # deep, so conditioning and convolving all rows up front is
        # mostly wasted work.
        self._base_len = base.pmf.size
        self._eps_q = quantile - 1e-12
        #: row -> the base conditioned on the row's lower elapsed edge.
        self._conditioned: Dict[int, Histogram] = {}
        #: row -> (mean, variance) of the conditioned row (CLT use only).
        self._moments: Dict[int, Tuple[float, float]] = {}
        #: row -> python-float tails for positions 0, 1, ...: explicit
        #: columns, then CLT extension past ``max_explicit``. Append-only,
        #: so the list objects the per-event fast paths hold stay valid.
        self._row_lists: Dict[int, List[float]] = {}
        #: FFT size -> [transform of base^(*1), base^(*2), ...] at that
        #: size, shared by every row's columns.
        self._powers: Dict[int, List[np.ndarray]] = {}

    @functools.cached_property
    def row_bounds(self) -> np.ndarray:
        """The row bounds as an array (built on first read when the
        constructor was given them)."""
        return np.array(self._row_bounds_list)

    @functools.cached_property
    def _z(self) -> float:
        """The standard normal quantile of the CLT positions."""
        return _normal_quantile(self.quantile)

    @functools.cached_property
    def base_mean(self) -> float:
        return self.base.mean()

    @functools.cached_property
    def base_var(self) -> float:
        return self.base.variance()

    def _condition(self, row: int) -> Histogram:
        cond = self._conditioned.get(row)
        if cond is None:
            cond = self._conditioned[row] = self.base.condition_on_elapsed(
                self._row_bounds_list[row])
        return cond

    def _row_moments(self, row: int) -> Tuple[float, float]:
        moments = self._moments.get(row)
        if moments is None:
            cond = self._condition(row)
            moments = self._moments[row] = (cond.mean(), cond.variance())
        return moments

    @property
    def row_means(self) -> np.ndarray:
        """Mean remaining work per row (conditions every row)."""
        return np.array([self._row_moments(r)[0]
                         for r in range(self.num_rows)])

    @property
    def row_vars(self) -> np.ndarray:
        """Variance of remaining work per row (conditions every row)."""
        return np.array([self._row_moments(r)[1]
                         for r in range(self.num_rows)])

    def _grow_row(self, row: int, count: int) -> List[float]:
        """The row's tail list with at least ``min(count, max_explicit)``
        explicit columns, building the missing ones.

        Column 0 is the conditioned distribution's own quantile. Column
        ``i`` is the quantile of ``cond * base^(*i)`` (``*`` =
        convolution): one multiply by the shared transform power and one
        ``irfft`` at the smallest power-of-two size covering the widest
        row's support — the size a build over all rows uses, so every
        cell comes out of the same float operations (a stacked
        ``irfft`` over rows equals per-row calls bit for bit).
        """
        tails = self._row_lists.get(row)
        if tails is None:
            cond = self._condition(row)
            tails = self._row_lists[row] = [cond.quantile(self.quantile)]
        count = min(count, self.max_explicit)
        if len(tails) >= count:
            return tails
        cond = self._condition(row)
        base = self.base
        base_len = self._base_len
        cond_len = cond.pmf.size
        width = base.bucket_width
        eps_q = self._eps_q
        for i in range(len(tails), count):
            # Row 0 conditions on zero elapsed work, so it is the base
            # itself and the widest row: base_len bounds every row.
            need = base_len + i * (base_len - 1)
            size = 1 << (need - 1).bit_length()
            powers = self._powers.get(size)
            if powers is None:
                powers = self._powers[size] = [base.rfft(size)]
            while len(powers) < i:
                powers.append(powers[-1] * powers[0])
            pmf = np.fft.irfft(cond.rfft(size) * powers[i - 1], size)
            # np.clip(pmf, 0.0, None) without its Python wrapper.
            np.maximum(pmf, 0.0, out=pmf)
            cdf = pmf.cumsum()
            # First bucket where the normalized CDF reaches q (same
            # epsilon Histogram.quantile uses), capped at the cell's true
            # support length.
            idx = int(cdf.searchsorted(eps_q * cdf[-1]))
            support = cond_len + i * (base_len - 1)
            tails.append((min(idx, support - 1) + 1) * width)
        return tails

    def materialize(self) -> np.ndarray:
        """Build every row to ``max_explicit`` columns and return the
        full explicit table (``num_rows x max_explicit``)."""
        m = self.max_explicit
        return np.array([self._grow_row(r, m)[:m]
                         for r in range(self.num_rows)])

    @property
    def table(self) -> np.ndarray:
        """The full explicit table; materializes every row (tests and
        benches only — the controller reads rows through the list
        accessors)."""
        return self.materialize()

    def built_cells(self) -> int:
        """Explicit cells built so far, over all rows."""
        m = self.max_explicit
        return sum(min(len(t), m) for t in self._row_lists.values())

    def row_tails_list(self, row: int, count: int) -> List[float]:
        """The row's tails as python floats, at least ``count`` long
        (``count`` must not exceed ``max_explicit``).

        The returned list is the row's own append-only cache: it may be
        longer than ``count`` and grows in place when the row is later
        read deeper, so a per-event reader (the decision kernel) can keep
        a reference.
        """
        tails = self._row_lists.get(row)
        if tails is None or len(tails) < count:
            return self._grow_row(row, count)
        return tails

    def extended_row_list(self, row: int, count: int) -> List[float]:
        """Row tails for positions ``0..count-1`` as python floats,
        CLT-extended past ``max_explicit``.

        Returns the *same* cached append-only list object as
        :meth:`row_tails_list`: once ``count`` exceeds the explicit
        table, the row's full explicit prefix is built and Gaussian
        tails are appended with exactly the arithmetic :meth:`tail`
        uses (bit-identical floats). Deep-queue controllers (the decision
        kernel) therefore read one flat list per demand type — and the
        extension travels with the table pair across ``TailTableCache``
        hits, so deep positions built in one run are never re-paid by
        the next.
        """
        max_explicit = self.max_explicit
        tails = self.row_tails_list(
            row, count if count <= max_explicit else max_explicit)
        if count > len(tails):
            row_mean, row_var = self._row_moments(row)
            base_mean = self.base_mean
            base_var = self.base_var
            z = self._z
            append = tails.append
            for position in range(len(tails), count):
                mean = row_mean + position * base_mean
                var = row_var + position * base_var
                append(max(0.0, float(mean + z * math.sqrt(max(var, 0.0)))))
        return tails

    # ------------------------------------------------------------------
    def row_for_elapsed(self, elapsed: float) -> int:
        """Row whose elapsed-work band contains ``elapsed``."""
        if elapsed < 0:
            raise ValueError("elapsed must be non-negative")
        # ndarray method, not np.searchsorted: the decision-oracle
        # suite's reference loop calls this twice per simulated event,
        # and the dispatch wrapper is measurable there.
        return int(self.row_bounds.searchsorted(elapsed, side="right")) - 1

    def tail(self, position: int, elapsed: float = 0.0) -> float:
        """Tail work until the request at queue ``position`` completes.

        Args:
            position: 0 for the running request, i for the i-th queued one.
            elapsed: work the *running* request has already executed.
        """
        if position < 0:
            raise ValueError("position must be non-negative")
        row = self.row_for_elapsed(elapsed)
        if position < self.max_explicit:
            return self.row_tails_list(row, position + 1)[position]
        # CLT extension (paper: i >= 16): Gaussian with accumulated
        # moments. math.sqrt, not np.sqrt: the reference loop reads this
        # per event past max_explicit, and ndarray scalar boxing is
        # measurable there (same bits — see Histogram.gaussian_tail).
        row_mean, row_var = self._row_moments(row)
        mean = row_mean + position * self.base_mean
        var = row_var + position * self.base_var
        return max(0.0, float(mean + self._z * math.sqrt(max(var, 0.0))))


class TargetTailTables:
    """The pair of tables Rubik consults on every event (Fig. 5)."""

    def __init__(
        self,
        cycles: Histogram,
        memory: Histogram,
        quantile: float = 0.95,
        num_rows: int = DEFAULT_NUM_ROWS,
        max_explicit: int = DEFAULT_MAX_EXPLICIT,
        row_bounds: Optional[Sequence[List[float]]] = None,
    ) -> None:
        """``row_bounds``: the (cycles, memory) tables' row bounds, when
        the caller has them (see :class:`TailTable`)."""
        cycle_bounds, memory_bounds = (
            (None, None) if row_bounds is None else row_bounds)
        self.cycles = TailTable(cycles, quantile, num_rows, max_explicit,
                                cycle_bounds)
        self.memory = TailTable(memory, quantile, num_rows, max_explicit,
                                memory_bounds)
