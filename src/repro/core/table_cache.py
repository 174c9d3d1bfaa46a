"""Refresh-cached target tail tables (perf layer 5; see
docs/performance.md).

The paper's runtime rebuilds its target tail tables every 100 ms
(Sec. 4.2). In steady state the demand window barely moves between
refreshes, and across experiment variants (ablations, scalar-vs-vector
A/B runs, `compare_schemes` seeds) *identical* demand windows recur
constantly — yet every refresh used to rebuild
:class:`~repro.core.tail_tables.TargetTailTables` from scratch,
discarding the rows the previous identical build had already
conditioned and convolved.

A :class:`TailTableCache` memoizes built table pairs behind a
**snapshot fingerprint**. A `TargetTailTables` is a pure function of
``(cycles histogram, memory histogram, quantile, num_rows,
max_explicit)``, and a histogram is fully determined by its bucket width
and pmf bytes — so the fingerprint is exactly that tuple, and an
unchanged fingerprint reuses the previous object outright. Tables build
each row on first read, to the depth read; reuse carries over every row
built so far (its per-row tail list, at whatever length it reached) and
the shared transform powers, so work accumulated since the last miss is
never re-paid. The cache is bounded (LRU) and shared process-wide;
worker processes each hold their own (results stay bitwise-identical
either way — pinned by the runner equivalence tests).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, Optional, Tuple


def snapshot_fingerprint(cycles, memory, quantile: float, num_rows: int,
                         max_explicit: int) -> Tuple:
    """Hashable identity of the table pair a demand snapshot implies.

    ``bucket_width`` + raw pmf bytes fully determine a
    :class:`~repro.core.histogram.Histogram`; the three parameters are
    everything else the ``TargetTailTables`` constructor consumes.
    Windows whose *counts* differ but normalize to the same pmf (e.g. a
    point mass at any sample count) fingerprint identically — exactly
    the steady-state reuse the refresh subsystem is after.
    """
    return (
        float(quantile), int(num_rows), int(max_explicit),
        cycles.bucket_width, cycles.pmf.tobytes(),
        memory.bucket_width, memory.pmf.tobytes(),
    )


@dataclasses.dataclass
class RefreshStats:
    """Per-controller counters for the periodic table refresh.

    Attributes:
        snapshots: demand snapshots taken (accepted refreshes).
        cache_hits: refreshes that reused a cached table pair.
        cache_misses: refreshes that rebuilt tables from scratch.
        columns_carried: explicit table cells (row x queue position)
            already built in reused table pairs at hit time, summed
            over both tables — lazy build work the hit avoided
            re-paying.
    """

    snapshots: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    columns_carried: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class TailTableCache:
    """Bounded LRU of ``TargetTailTables`` keyed by snapshot fingerprint.

    Entries are *live* objects: rows built through a cached pair
    accumulate in place, so later hits inherit them. Eviction only drops
    the cache's reference — controllers holding the pair keep it.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[object]:
        """The cached table pair for ``key``, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Tuple, tables: object) -> None:
        """Insert (or refresh) ``key``, evicting the least recent over
        ``maxsize``."""
        entries = self._entries
        entries[key] = tables
        entries.move_to_end(key)
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters persist; see :meth:`reset_stats`)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Process-wide cache every Rubik instance consults: ablation variants
#: and repeated `compare_schemes` runs over identical demand windows
#: share builds. Pool workers hold their own copy (bitwise-invisible).
#: A run's refresh count varies widely: a serial dvfs-sweep refreshes 2
#: to 434 times per run (median 20). At seed offset 1 and this bound it
#: makes 533 hits and 7,545 evictions over 8,142 lookups, and the native
#: span loop builds 160,524 table cells (counted as the session writes
#: them back to the row lists). A 4,096 bound makes 3,141 hits, yet the
#: cells built fall only to 141,192 (-12%): the windows that repeat are
#: shallow ones. The process then peaks at 85 MB instead of 49 MB, so
#: the bound stays. A cold+warm pair of one short run still fits:
#: ``test_warm_run_hits_and_matches_cold_bitwise`` asserts zero
#: evictions across it, to keep that cliff self-diagnosing.
TABLE_CACHE = TailTableCache()
