"""Tests for batch app models and mixes."""

import pytest

from repro.config import DEFAULT_DVFS
from repro.coloc.batch import (
    BatchAppProfile,
    BatchTask,
    SPEC_APPS,
    SPEC_BY_NAME,
    generate_mixes,
)
from repro.power.model import DEFAULT_CORE_POWER


class TestBatchAppProfile:
    def test_throughput_formula(self):
        app = BatchAppProfile("x", cpi_core=1.0, mem_ns_per_instr=0.0)
        assert app.throughput(2e9) == pytest.approx(2e9)

    def test_memory_bound_saturates(self):
        """Memory-heavy apps barely speed up with frequency."""
        mcf = SPEC_BY_NAME["mcf"]
        speedup = mcf.throughput(3.4e9) / mcf.throughput(0.8e9)
        assert speedup < 1.5

    def test_compute_bound_scales(self):
        namd = SPEC_BY_NAME["namd"]
        speedup = namd.throughput(3.4e9) / namd.throughput(0.8e9)
        assert speedup > 3.0

    def test_ipc_range_realistic(self):
        """Nominal IPCs span the SPEC range (~0.2 to ~2.4)."""
        ipcs = [a.throughput(2.4e9) / 2.4e9 for a in SPEC_APPS]
        assert min(ipcs) < 0.4
        assert max(ipcs) > 1.5

    def test_mem_stall_frac_bounds(self):
        for app in SPEC_APPS:
            frac = app.mem_stall_frac(2.4e9)
            assert 0.0 <= frac < 1.0

    def test_best_tpw_below_nominal(self):
        """Batch apps never run above nominal (TDP rule, Sec. 7)."""
        for app in SPEC_APPS:
            f = app.best_tpw_frequency(DEFAULT_DVFS, DEFAULT_CORE_POWER)
            assert f <= DEFAULT_DVFS.nominal_hz

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchAppProfile("x", cpi_core=0.0, mem_ns_per_instr=1.0)
        with pytest.raises(ValueError):
            BatchAppProfile("x", cpi_core=1.0, mem_ns_per_instr=-1.0)
        with pytest.raises(ValueError):
            SPEC_APPS[0].throughput(0.0)


class TestMixes:
    def test_paper_shape(self):
        mixes = generate_mixes(20, 6, seed=0)
        assert len(mixes) == 20
        assert all(len(m) == 6 for m in mixes)

    def test_no_duplicates_within_mix(self):
        for mix in generate_mixes(20, 6, seed=1):
            names = [a.name for a in mix]
            assert len(set(names)) == 6

    def test_deterministic(self):
        a = generate_mixes(5, 6, seed=2)
        b = generate_mixes(5, 6, seed=2)
        assert [[x.name for x in m] for m in a] == \
            [[x.name for x in m] for m in b]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_mixes(0)


class TestBatchTask:
    def test_accumulates_instructions(self):
        task = BatchTask(SPEC_BY_NAME["namd"], DEFAULT_DVFS,
                         DEFAULT_CORE_POWER)
        task.run(1.0, 2e9)
        assert task.instructions == pytest.approx(
            SPEC_BY_NAME["namd"].throughput(2e9))
        assert task.run_time_s == 1.0

    def test_mean_throughput(self):
        task = BatchTask(SPEC_BY_NAME["gcc"], DEFAULT_DVFS,
                         DEFAULT_CORE_POWER)
        assert task.mean_throughput == 0.0
        task.run(2.0, 1.6e9)
        assert task.mean_throughput == pytest.approx(
            SPEC_BY_NAME["gcc"].throughput(1.6e9))

    def test_preferred_frequency_cached(self):
        task = BatchTask(SPEC_BY_NAME["mcf"], DEFAULT_DVFS,
                         DEFAULT_CORE_POWER)
        assert task.preferred_frequency(DEFAULT_DVFS) == \
            SPEC_BY_NAME["mcf"].best_tpw_frequency(
                DEFAULT_DVFS, DEFAULT_CORE_POWER)

    def test_rejects_negative_duration(self):
        task = BatchTask(SPEC_APPS[0], DEFAULT_DVFS, DEFAULT_CORE_POWER)
        with pytest.raises(ValueError):
            task.run(-1.0, 2e9)
