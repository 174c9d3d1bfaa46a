"""Fault-plane unit tests: spec validation, plan grammar, trigger
determinism, and the never-ambient activation contract."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import faults
from repro.resilience.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
)


class TestFaultSpecValidation:
    def test_minimal_index_spec(self):
        spec = FaultSpec("cell.raise", index=3)
        assert spec.times == 1 and spec.delay_s == 0.0

    def test_unknown_hook_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault hook"):
            FaultSpec("worker.explode", index=0)

    def test_no_trigger_rejected(self):
        with pytest.raises(FaultPlanError, match="exactly one trigger"):
            FaultSpec("cell.raise")

    def test_two_triggers_rejected(self):
        with pytest.raises(FaultPlanError, match="exactly one trigger"):
            FaultSpec("cell.raise", index=1, nth=2)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(index=-1), "index"),
        (dict(nth=0), "nth"),
        (dict(p=1.5), "p trigger"),
        (dict(index=0, times=0), "times"),
        (dict(index=0, delay_s=-0.1), "delay_s"),
        # Non-finite: an infinite delay would make _fire's sleep raise
        # OverflowError, and a NaN one would mean no delay at all.
        (dict(index=0, delay_s=math.inf), "delay_s must be finite"),
        (dict(index=0, delay_s=math.nan), "delay_s must be finite"),
        (dict(p=math.nan), "p must be finite"),
        (dict(index=0, times=math.inf), "times must be finite"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(FaultPlanError, match=match):
            FaultSpec("cell.raise", **kwargs)


class TestPlanGrammar:
    def test_docstring_example(self):
        plan = FaultPlan.parse(
            "seed=7;worker.crash@0:delay=0.3;cell.raise@3:times=9;"
            "worker.hang@5:times=9")
        assert plan.seed == 7
        assert [f.hook for f in plan.faults] == [
            "worker.crash", "cell.raise", "worker.hang"]
        assert plan.faults[0].delay_s == 0.3
        assert plan.faults[1].index == 3 and plan.faults[1].times == 9

    def test_nth_and_p_options(self):
        plan = FaultPlan.parse("artifact.corrupt_read:nth=2;"
                               "native.load_fail:p=0.25,times=3")
        assert plan.faults[0].nth == 2
        assert plan.faults[1].p == 0.25 and plan.faults[1].times == 3

    def test_empty_clauses_and_whitespace_ignored(self):
        plan = FaultPlan.parse(" ; cell.raise@1 ;; seed=2 ")
        assert plan.seed == 2 and len(plan.faults) == 1

    @pytest.mark.parametrize("spec", [
        "seed=x",
        "cell.raise@x",
        "cell.raise@1:bogus=3",
        "cell.raise@1:times=x",
        "cell.raise@1:p",
        "worker.explode@1",
        "cell.raise",  # no trigger
        "cell.raise@1:delay=inf",
        "cell.raise@1:delay=nan",
        "cell.raise:p=nan",
    ])
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(spec)


@st.composite
def fault_specs(draw):
    """A random valid FaultSpec: one trigger, optional times/delay."""
    trigger = draw(st.sampled_from(["index", "nth", "p"]))
    kwargs = {}
    if trigger == "index":
        kwargs["index"] = draw(st.integers(0, 10**9))
    elif trigger == "nth":
        kwargs["nth"] = draw(st.integers(1, 10**9))
    else:
        kwargs["p"] = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        kwargs["times"] = draw(st.integers(1, 10**9))
    if draw(st.booleans()):
        kwargs["delay_s"] = draw(st.floats(0.0, 1e9))
    return FaultSpec(draw(st.sampled_from(faults.HOOKS)), **kwargs)


def format_clause(spec, draw):
    """One grammar clause for ``spec``: options in a random order,
    defaults written out or left implicit at random. ``repr`` of a
    float parses back to the same float."""
    head = spec.hook if spec.index is None else f"{spec.hook}@{spec.index}"
    opts = []
    if spec.nth is not None:
        opts.append(f"nth={spec.nth}")
    if spec.p is not None:
        opts.append(f"p={spec.p!r}")
    if spec.times != 1 or draw(st.booleans()):
        opts.append(f"times={spec.times}")
    if spec.delay_s != 0.0 or draw(st.booleans()):
        opts.append(f"delay={spec.delay_s!r}")
    opts = draw(st.permutations(opts))
    return head + (":" + ",".join(opts) if opts else "")


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=0.0, exclude_max=True)

#: Clause tails that put one trigger or option out of range: negative
#: index, nth < 1, p outside [0, 1], times < 1, negative delay, and NaN
#: or infinite p or delay.
BAD_TAILS = st.one_of(
    st.integers(max_value=-1).map(lambda v: f"@{v}"),
    st.integers(max_value=0).map(lambda v: f":nth={v}"),
    st.one_of(NEGATIVE, st.floats(min_value=1.0, exclude_min=True),
              NON_FINITE).map(lambda v: f":p={v!r}"),
    st.integers(max_value=0).map(lambda v: f"@0:times={v}"),
    st.one_of(NEGATIVE, NON_FINITE).map(lambda v: f"@0:delay={v!r}"),
)


class TestPlanGrammarProperties:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(-2**63, 2**63 - 1),
           specs=st.lists(fault_specs(), max_size=6),
           data=st.data())
    def test_parse_inverts_formatting(self, seed, specs, data):
        clauses = [format_clause(spec, data.draw) for spec in specs]
        clauses.insert(data.draw(st.integers(0, len(clauses))),
                       f"seed={seed}")
        plan = FaultPlan.parse(";".join(clauses))
        assert plan == FaultPlan(seed=seed, faults=tuple(specs))

    @settings(max_examples=200, deadline=None)
    @given(hook=st.sampled_from(faults.HOOKS), tail=BAD_TAILS,
           valid=st.lists(fault_specs(), max_size=2), data=st.data())
    def test_out_of_range_values_raise(self, hook, tail, valid, data):
        clauses = [format_clause(spec, data.draw) for spec in valid]
        clauses.insert(data.draw(st.integers(0, len(clauses))), hook + tail)
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(";".join(clauses))


class TestUnitInterval:
    def test_deterministic_and_bounded(self):
        a = faults.unit_interval(7, "cell.raise", 3, 0)
        assert a == faults.unit_interval(7, "cell.raise", 3, 0)
        assert 0.0 <= a < 1.0

    def test_key_sensitivity(self):
        assert faults.unit_interval(7, "x") != faults.unit_interval(8, "x")


class TestEnvGate:
    def test_unset_means_no_plan(self):
        assert faults.env_plan() is None
        assert faults.active_plan() is None

    def test_valid_env_plan_parses(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "seed=3;cell.raise@0")
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 3

    def test_blank_value_warns_once_and_reads_unset(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "   ")
        with pytest.warns(RuntimeWarning, match=FAULT_PLAN_ENV):
            assert faults.env_plan() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert faults.env_plan() is None

    def test_unparsable_value_warns_once_and_reads_unset(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "worker.explode@1")
        with pytest.warns(RuntimeWarning,
                          match=r"ignoring invalid REPRO_FAULT_PLAN"):
            assert faults.env_plan() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert faults.env_plan() is None

    def test_explicit_activation_beats_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "seed=1;cell.raise@0")
        override = FaultPlan.parse("seed=99")
        with faults.activate(override):
            assert faults.active_plan() is override
        assert faults.active_plan().seed == 1


class TestTriggers:
    def test_no_plan_every_consult_is_noop(self):
        for hook in faults.HOOKS:
            assert faults.should_fire(hook, index=0) is None
            faults.maybe_inject(hook, index=0)  # must not raise

    def test_unknown_hook_consult_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault hook"):
            faults.should_fire("cell.explode")

    def test_index_trigger_sabotages_first_times_attempts(self):
        plan = FaultPlan.parse("cell.raise@2:times=2")
        with faults.activate(plan):
            assert faults.should_fire("cell.raise", index=1) is None
            assert faults.should_fire("cell.raise", index=2, attempt=0)
            assert faults.should_fire("cell.raise", index=2, attempt=1)
            # Budget spent: the retried cell recovers deterministically.
            assert faults.should_fire(
                "cell.raise", index=2, attempt=2) is None

    def test_nth_trigger_window(self):
        plan = FaultPlan.parse("native.load_fail:nth=2,times=2")
        with faults.activate(plan):
            fired = [faults.should_fire("native.load_fail") is not None
                     for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_activation_resets_consult_counters(self):
        plan = FaultPlan.parse("native.load_fail:nth=1")
        with faults.activate(plan):
            assert faults.should_fire("native.load_fail")
        with faults.activate(plan):
            assert faults.should_fire("native.load_fail")

    def test_p_trigger_deterministic_and_bounded_by_times(self):
        plan = FaultPlan.parse("seed=5;cell.raise:p=1.0,times=2")
        with faults.activate(plan):
            first = [faults.should_fire("cell.raise", index=i) is not None
                     for i in range(4)]
        with faults.activate(plan):
            second = [faults.should_fire("cell.raise", index=i) is not None
                      for i in range(4)]
        assert first == second == [True, True, False, False]

    def test_p_zero_never_fires(self):
        plan = FaultPlan.parse("cell.raise:p=0.0")
        with faults.activate(plan):
            assert all(faults.should_fire("cell.raise", index=i) is None
                       for i in range(20))

    def test_maybe_inject_raises_injected_fault(self):
        plan = FaultPlan.parse("cell.raise@4")
        with faults.activate(plan):
            with pytest.raises(InjectedFault, match="cell index 4"):
                faults.maybe_inject("cell.raise", index=4)


class TestLibraryHooks:
    def test_native_loader_falls_back_to_python(self, monkeypatch):
        """An injected loader failure rides the existing warn-once
        Python-kernel fallback instead of breaking the simulator."""
        from repro.core._native import build

        # The loader only runs with the native gate open.
        monkeypatch.delenv(build.NATIVE_ENV, raising=False)
        build._reset_for_tests()
        try:
            plan = FaultPlan.parse("native.load_fail:nth=1")
            with faults.activate(plan):
                with pytest.warns(RuntimeWarning, match="falling back"):
                    assert build.load_library() is None
        finally:
            build._reset_for_tests()

    def test_corrupt_read_warns_deletes_and_recomputes(self, tmp_path):
        from repro.experiments.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        store.put("fig06", "f" * 16, {"v": 1})
        plan = FaultPlan.parse("artifact.corrupt_read:nth=1")
        with faults.activate(plan):
            with pytest.warns(RuntimeWarning, match="corrupt"):
                found, _ = store.get("fig06", "f" * 16)
        assert not found  # entry deleted: next run recomputes
        found, value = store.get("fig06", "f" * 16)
        assert not found and store.stats()["misses"] >= 2
