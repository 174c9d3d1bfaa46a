"""Tests for repro.config: frequency grids and machine configuration."""

import pytest

from repro import config
from repro.config import (
    CmpConfig,
    DEFAULT_CMP,
    DEFAULT_DVFS,
    DvfsConfig,
    FREQUENCY_STEP_HZ,
    MAX_FREQUENCY_HZ,
    MIN_FREQUENCY_HZ,
    NOMINAL_FREQUENCY_HZ,
    frequency_grid,
    real_system_dvfs,
)


class TestFrequencyGrid:
    def test_paper_grid_has_14_steps(self):
        # 0.8..3.4 GHz in 0.2 GHz steps (Table 2).
        assert len(frequency_grid()) == 14

    def test_grid_endpoints(self):
        grid = frequency_grid()
        assert grid[0] == pytest.approx(MIN_FREQUENCY_HZ)
        assert grid[-1] == pytest.approx(MAX_FREQUENCY_HZ)

    def test_grid_is_ascending_and_uniform(self):
        grid = frequency_grid()
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        assert all(d == pytest.approx(FREQUENCY_STEP_HZ) for d in diffs)

    def test_nominal_on_grid(self):
        assert NOMINAL_FREQUENCY_HZ in frequency_grid()

    def test_custom_grid(self):
        grid = frequency_grid(1e9, 2e9, 0.5e9)
        assert grid == (1e9, 1.5e9, 2e9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            frequency_grid(0, 1e9, 1e8)
        with pytest.raises(ValueError):
            frequency_grid(2e9, 1e9, 1e8)
        with pytest.raises(ValueError):
            frequency_grid(1e9, 2e9, 0)


class TestDvfsConfig:
    def test_quantize_up_exact(self):
        assert DEFAULT_DVFS.quantize_up(2.4e9) == pytest.approx(2.4e9)

    def test_quantize_up_rounds_up(self):
        assert DEFAULT_DVFS.quantize_up(2.41e9) == pytest.approx(2.6e9)

    def test_quantize_up_clamps_to_max(self):
        assert DEFAULT_DVFS.quantize_up(9e9) == pytest.approx(3.4e9)

    def test_quantize_up_clamps_to_min(self):
        assert DEFAULT_DVFS.quantize_up(0.1e9) == pytest.approx(0.8e9)

    def test_quantize_down_rounds_down(self):
        assert DEFAULT_DVFS.quantize_down(2.39e9) == pytest.approx(2.2e9)

    def test_quantize_down_clamps_to_min(self):
        assert DEFAULT_DVFS.quantize_down(0.1e9) == pytest.approx(0.8e9)

    def test_min_max_properties(self):
        assert DEFAULT_DVFS.min_hz == pytest.approx(0.8e9)
        assert DEFAULT_DVFS.max_hz == pytest.approx(3.4e9)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            DvfsConfig(frequencies=())

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            DvfsConfig(frequencies=(2e9, 1e9), nominal_hz=1e9)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            DvfsConfig(transition_latency_s=-1e-6)

    def test_rejects_nominal_off_range(self):
        with pytest.raises(ValueError):
            DvfsConfig(frequencies=(1e9, 2e9), nominal_hz=5e9)

    def test_real_system_latency(self):
        # Sec. 5.5: observed ~130 us transitions on real Haswell.
        assert real_system_dvfs().transition_latency_s == pytest.approx(130e-6)


class TestCmpConfig:
    def test_paper_defaults(self):
        assert DEFAULT_CMP.num_cores == 6
        assert DEFAULT_CMP.tdp_watts == pytest.approx(65.0)

    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            CmpConfig(num_cores=0)

    def test_rejects_bad_tdp(self):
        with pytest.raises(ValueError):
            CmpConfig(tdp_watts=-1)


class TestEnvGateHelpers:
    """The shared REPRO_* validation helpers the per-module gates
    delegate to (consolidated from three near-identical blocks in
    resilience.execution, core._native.build, and experiments.artifacts)."""

    def test_nonneg_int_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "4")
        assert config.env_nonneg_int("REPRO_TEST_INT", set()) == 4

    def test_nonneg_int_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert config.env_nonneg_int("REPRO_TEST_INT", set()) is None

    @pytest.mark.parametrize("raw", ["", "-3", "abc"])
    def test_nonneg_int_invalid_warns_with_original_text(
            self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_INT", raw)
        with pytest.warns(RuntimeWarning,
                          match=r"ignoring invalid REPRO_TEST_INT"
                                r".*non-negative integer"):
            assert config.env_nonneg_int("REPRO_TEST_INT", set()) is None

    def test_tristate_accepts_modes_case_insensitively(self, monkeypatch):
        for raw, want in [("1", "1"), ("0", "0"), ("AUTO", "auto"),
                          (" auto ", "auto")]:
            monkeypatch.setenv("REPRO_TEST_TRI", raw)
            assert config.env_tristate("REPRO_TEST_TRI", set()) == want

    def test_tristate_invalid_warns_and_reads_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_TRI", "yes")
        with pytest.warns(RuntimeWarning,
                          match=r"expected '1', '0', or 'auto'"):
            assert config.env_tristate("REPRO_TEST_TRI", set()) == "auto"

    def test_path_expands_user(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIR", "~/stores")
        got = config.env_path("REPRO_TEST_DIR", ".default", set())
        assert "~" not in str(got)

    def test_path_blank_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIR", "   ")
        with pytest.warns(RuntimeWarning, match="expected a directory path"):
            got = config.env_path("REPRO_TEST_DIR", ".default", set())
        assert str(got) == ".default"

    def test_warn_once_per_distinct_value_in_caller_registry(
            self, monkeypatch, recwarn):
        import warnings as warnings_mod
        registry = set()
        monkeypatch.setenv("REPRO_TEST_TRI", "bogus")
        with pytest.warns(RuntimeWarning):
            config.env_tristate("REPRO_TEST_TRI", registry)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            # Same raw value, same registry: silent.
            assert config.env_tristate("REPRO_TEST_TRI", registry) == "auto"
        # A distinct raw value warns again.
        monkeypatch.setenv("REPRO_TEST_TRI", "bogus2")
        with pytest.warns(RuntimeWarning):
            config.env_tristate("REPRO_TEST_TRI", registry)

    def test_str_returns_content_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_STR", " seed=7;cell.raise@3 ")
        # Not even stripped: the caller owns the grammar.
        assert config.env_str("REPRO_TEST_STR", set()) == \
            " seed=7;cell.raise@3 "

    def test_str_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_STR", raising=False)
        assert config.env_str("REPRO_TEST_STR", set()) is None

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_str_blank_warns_and_reads_unset(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_STR", raw)
        with pytest.warns(RuntimeWarning,
                          match=r"ignoring invalid REPRO_TEST_STR"
                                r".*non-empty"):
            assert config.env_str("REPRO_TEST_STR", set()) is None

    def test_registries_are_per_variable_keyed(self, monkeypatch):
        # One shared registry can serve several variables: keys carry
        # the variable name, so the same raw value warns per variable.
        registry = set()
        monkeypatch.setenv("REPRO_TEST_A", "bogus")
        monkeypatch.setenv("REPRO_TEST_B", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_A"):
            config.env_tristate("REPRO_TEST_A", registry)
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_B"):
            config.env_tristate("REPRO_TEST_B", registry)
