"""Tests for app profiles and demand sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NOMINAL_FREQUENCY_HZ
from repro.workloads.base import AppProfile, lognormal_params


def make_app(**kw):
    defaults = dict(name="t", mean_service_s=1e-3, service_cv=0.3,
                    mem_fraction=0.2, num_requests=100)
    defaults.update(kw)
    return AppProfile(**defaults)


class TestLognormalParams:
    def test_mean_recovered(self):
        mu, sigma = lognormal_params(5.0, 0.5)
        samples = np.random.default_rng(0).lognormal(mu, sigma, 100000)
        assert samples.mean() == pytest.approx(5.0, rel=0.02)

    def test_cv_recovered(self):
        mu, sigma = lognormal_params(5.0, 0.8)
        samples = np.random.default_rng(1).lognormal(mu, sigma, 200000)
        assert samples.std() / samples.mean() == pytest.approx(0.8, rel=0.05)

    def test_zero_cv(self):
        mu, sigma = lognormal_params(2.0, 0.0)
        assert sigma == 0.0
        assert np.exp(mu) == pytest.approx(2.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lognormal_params(0.0, 0.5)
        with pytest.raises(ValueError):
            lognormal_params(1.0, -0.1)


class TestSampling:
    def test_mean_service_time(self):
        app = make_app()
        rng = np.random.default_rng(2)
        cycles, mem = app.sample_demands(50000, rng)
        svc = cycles / NOMINAL_FREQUENCY_HZ + mem
        assert svc.mean() == pytest.approx(1e-3, rel=0.03)

    def test_service_cv(self):
        app = make_app(service_cv=0.5)
        rng = np.random.default_rng(3)
        cycles, mem = app.sample_demands(100000, rng)
        svc = cycles / NOMINAL_FREQUENCY_HZ + mem
        assert svc.std() / svc.mean() == pytest.approx(0.5, rel=0.1)

    def test_memory_fraction(self):
        app = make_app(mem_fraction=0.3)
        rng = np.random.default_rng(4)
        cycles, mem = app.sample_demands(50000, rng)
        svc = cycles / NOMINAL_FREQUENCY_HZ + mem
        assert mem.mean() / svc.mean() == pytest.approx(0.3, rel=0.05)

    def test_zero_memory_fraction(self):
        app = make_app(mem_fraction=0.0)
        rng = np.random.default_rng(5)
        _, mem = app.sample_demands(100, rng)
        assert np.all(mem == 0.0)

    def test_mixture_preserves_mean(self):
        app = make_app(long_fraction=0.05, long_scale=10.0)
        rng = np.random.default_rng(6)
        cycles, mem = app.sample_demands(200000, rng)
        svc = cycles / NOMINAL_FREQUENCY_HZ + mem
        assert svc.mean() == pytest.approx(1e-3, rel=0.05)

    def test_mixture_creates_heavy_tail(self):
        plain = make_app(service_cv=0.3)
        mixed = make_app(service_cv=0.3, long_fraction=0.05, long_scale=10.0)
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        c1, m1 = plain.sample_demands(50000, rng1)
        c2, m2 = mixed.sample_demands(50000, rng2)
        s1 = c1 / NOMINAL_FREQUENCY_HZ + m1
        s2 = c2 / NOMINAL_FREQUENCY_HZ + m2
        assert np.percentile(s2, 99.5) > 2 * np.percentile(s1, 99.5)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            make_app().sample_demands(0, np.random.default_rng(0))


class TestHints:
    def test_perfect_hints(self):
        app = make_app(hint_quality=1.0)
        rng = np.random.default_rng(8)
        cycles, _ = app.sample_demands(100, rng)
        predicted = app.predict_demands(cycles, rng)
        np.testing.assert_array_equal(predicted, cycles)

    def test_zero_quality_uncorrelated(self):
        app = make_app(hint_quality=0.0, service_cv=0.8)
        rng = np.random.default_rng(9)
        cycles, _ = app.sample_demands(20000, rng)
        predicted = app.predict_demands(cycles, rng)
        corr = np.corrcoef(np.log(cycles), np.log(predicted))[0, 1]
        assert abs(corr) < 0.05

    def test_partial_quality_partial_correlation(self):
        app = make_app(hint_quality=0.5, service_cv=0.8)
        rng = np.random.default_rng(10)
        cycles, _ = app.sample_demands(20000, rng)
        predicted = app.predict_demands(cycles, rng)
        corr = np.corrcoef(np.log(cycles), np.log(predicted))[0, 1]
        assert 0.2 < corr < 0.9


class TestRates:
    def test_saturation_qps(self):
        assert make_app().saturation_qps == pytest.approx(1000.0)

    def test_rate_for_load(self):
        assert make_app().rate_for_load(0.5) == pytest.approx(500.0)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            make_app().rate_for_load(-0.1)


class TestValidation:
    @pytest.mark.parametrize("kw", [
        dict(mean_service_s=0.0),
        dict(service_cv=-1.0),
        dict(mem_fraction=1.0),
        dict(num_requests=0),
        dict(long_fraction=1.0),
        dict(long_scale=0.5),
        dict(hint_quality=1.5),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            make_app(**kw)


class TestPaperApps:
    def test_table3_request_counts(self):
        from repro.workloads.apps import APPS
        expected = {"xapian": 6000, "masstree": 9000, "moses": 900,
                    "shore": 7500, "specjbb": 37500}
        for name, count in expected.items():
            assert APPS[name].num_requests == count

    def test_app_names_order(self):
        from repro.workloads.apps import app_names
        assert app_names() == ["masstree", "moses", "shore", "specjbb",
                               "xapian"]

    def test_get_app(self):
        from repro.workloads.apps import get_app
        assert get_app("moses").name == "moses"
        with pytest.raises(KeyError):
            get_app("nope")

    def test_variability_spectrum(self):
        """masstree/moses tight; shore/xapian/specjbb variable (Sec. 3)."""
        from repro.workloads.apps import APPS
        assert APPS["masstree"].service_cv < 0.3
        assert APPS["moses"].service_cv < 0.3
        assert APPS["specjbb"].service_cv > 1.0
