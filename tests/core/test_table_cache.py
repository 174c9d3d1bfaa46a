"""Tests for the refresh cache: snapshot fingerprints, LRU bounds, and
bitwise-invisible reuse through the Rubik controller."""

import math

import numpy as np
import pytest

from repro.core.controller import Rubik
from repro.core.histogram import Histogram
from repro.core.table_cache import (
    TABLE_CACHE,
    TailTableCache,
    snapshot_fingerprint,
)
from repro.core.tail_tables import TargetTailTables
from repro.experiments.common import make_context
from repro.sim.server import run_trace
from repro.sim.trace import Trace
from repro.workloads.apps import MASSTREE


def lognormal_hist(seed=0, mean=1e6, cv=0.3, n=4000):
    sigma2 = math.log(1 + cv * cv)
    mu = math.log(mean) - sigma2 / 2
    samples = np.random.default_rng(seed).lognormal(mu, math.sqrt(sigma2), n)
    return Histogram.from_samples(samples)


class TestFingerprint:
    def test_equal_for_equal_snapshots(self):
        """Distinct objects, same (width, pmf): identical fingerprint."""
        c1, c2 = lognormal_hist(0), lognormal_hist(0)
        m1, m2 = lognormal_hist(1, mean=1e-4), lognormal_hist(1, mean=1e-4)
        assert c1 is not c2
        assert snapshot_fingerprint(c1, m1, 0.95, 8, 16) == \
            snapshot_fingerprint(c2, m2, 0.95, 8, 16)

    def test_miss_on_pmf_change(self):
        c1, c2 = lognormal_hist(0), lognormal_hist(2)
        m = lognormal_hist(1, mean=1e-4)
        assert snapshot_fingerprint(c1, m, 0.95, 8, 16) != \
            snapshot_fingerprint(c2, m, 0.95, 8, 16)

    def test_miss_on_width_change(self):
        """Same pmf shape, different bucket width (point masses)."""
        c = lognormal_hist(0)
        m1 = Histogram.point_mass(0.0, bucket_width=1e-9)
        m2 = Histogram.point_mass(0.0, bucket_width=1.0)
        np.testing.assert_array_equal(m1.pmf, m2.pmf)
        assert snapshot_fingerprint(c, m1, 0.95, 8, 16) != \
            snapshot_fingerprint(c, m2, 0.95, 8, 16)

    @pytest.mark.parametrize("kwargs", [
        dict(quantile=0.99), dict(num_rows=4), dict(max_explicit=4),
    ])
    def test_miss_on_parameter_change(self, kwargs):
        c, m = lognormal_hist(0), lognormal_hist(1, mean=1e-4)
        base = dict(quantile=0.95, num_rows=8, max_explicit=16)
        assert snapshot_fingerprint(c, m, **base) != \
            snapshot_fingerprint(c, m, **{**base, **kwargs})


class TestLRUBound:
    def _key(self, i):
        return ("k", i)

    def test_eviction_bound_and_order(self):
        cache = TailTableCache(maxsize=2)
        cache.put(self._key(0), "a")
        cache.put(self._key(1), "b")
        cache.put(self._key(2), "c")  # evicts key 0 (least recent)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(self._key(0)) is None
        assert cache.get(self._key(2)) == "c"

    def test_get_refreshes_recency(self):
        cache = TailTableCache(maxsize=2)
        cache.put(self._key(0), "a")
        cache.put(self._key(1), "b")
        assert cache.get(self._key(0)) == "a"  # 0 becomes most recent
        cache.put(self._key(2), "c")           # evicts 1, not 0
        assert cache.get(self._key(0)) == "a"
        assert cache.get(self._key(1)) is None

    def test_stats_and_clear(self):
        cache = TailTableCache(maxsize=4)
        cache.put(self._key(0), "a")
        cache.get(self._key(0))
        cache.get(self._key(7))
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1  # counters survive clear
        cache.reset_stats()
        assert cache.stats()["hits"] == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            TailTableCache(maxsize=0)


class TestControllerReuse:
    def _run(self, rubik, n=1500, seed=3, load=0.5):
        ctx = make_context(MASSTREE, seed, n)
        trace = Trace.generate_at_load(MASSTREE, load, n, seed)
        return run_trace(trace, rubik, ctx, record_freq_history=True)

    def test_warm_run_hits_and_matches_cold_bitwise(self):
        """Reuse is the whole point — and must be bitwise-invisible."""
        TABLE_CACHE.clear()
        TABLE_CACHE.reset_stats()
        cold_rubik = Rubik()
        cold = self._run(cold_rubik)
        assert cold_rubik.refresh_stats.snapshots >= 2
        assert cold_rubik.refresh_stats.cache_misses == \
            cold_rubik.refresh_stats.snapshots
        assert cold_rubik.refresh_stats.cache_hits == 0

        warm_rubik = Rubik()
        warm = self._run(warm_rubik)
        stats = warm_rubik.refresh_stats
        assert stats.cache_misses == 0
        assert stats.cache_hits == stats.snapshots == \
            cold_rubik.refresh_stats.snapshots
        # Columns built during the cold run ride along on every hit.
        assert stats.columns_carried > 0

        assert warm.freq_history == cold.freq_history
        assert warm.energy_j == cold.energy_j
        np.testing.assert_array_equal(warm.response_times(),
                                      cold.response_times())
        # One run's fingerprints must fit the cache, or the cold run
        # evicts its own entries and warm reuse degrades unseen.
        assert TABLE_CACHE.stats()["evictions"] == 0

    def test_table_updates_counts_refreshes_not_rebuilds(self):
        TABLE_CACHE.clear()
        a, b = Rubik(), Rubik()
        self._run(a)
        self._run(b)
        assert b.table_updates == b.refresh_stats.snapshots
        assert b.table_updates == a.table_updates

    def test_distinct_parameters_do_not_collide(self):
        """Ablation variants (different rows/depth) over the same trace
        must build their own tables, not reuse the paper config's."""
        TABLE_CACHE.clear()
        self._run(Rubik(), n=800)
        variant = Rubik(num_rows=4)
        self._run(variant, n=800)
        assert variant.refresh_stats.cache_misses == \
            variant.refresh_stats.snapshots
        assert all(t.num_rows == 4 for t in
                   (variant.tables.cycles, variant.tables.memory))

    def test_shared_across_instances_is_the_process_cache(self):
        TABLE_CACHE.clear()
        a, b = Rubik(), Rubik()
        self._run(a, n=800)
        self._run(b, n=800)
        assert b.tables is a.tables  # the very same cached pair
