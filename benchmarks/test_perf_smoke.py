"""Tier-1 smoke test for the perf harness (marker: ``perf_smoke``).

Runs ``benchmarks/run_bench.py`` in ``--quick`` mode against a temp
output file and sanity-checks the emitted schema, so breakage in the
benchmark harness (or a catastrophic slowdown in a hot path) is caught
by the ordinary test flow without regenerating full figures.

Deselect with ``-m "not perf_smoke"`` when iterating on unrelated code.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_bench  # noqa: E402


@pytest.mark.perf_smoke
def test_quick_bench_emits_trajectory_point(tmp_path):
    out = tmp_path / "bench.json"
    results = run_bench.main(["--quick", "--output", str(out)])

    # The file is valid JSON and matches what main() returned.
    on_disk = json.loads(out.read_text())
    assert on_disk["pr"] == run_bench.PR_NUMBER
    assert on_disk["quick"] is True

    # Invariant-checker gate (PR 8): a bench point is only recorded for
    # a tree that passes `python -m repro.lint`, and the scan summary
    # rides along in the trajectory file.
    lint = results["lint"]
    assert lint["clean"], "\n".join(lint["findings"])
    assert lint["files_scanned"] > 50
    assert len(lint["rules_run"]) == 7

    # Schema: every tracked section is present with sane values.
    table = results["table_build"]
    assert 0 < table["lazy_pair_ms"] <= table["materialized_pair_ms"]
    assert table["materialized_builds_per_s"] > 0

    events = results["controller_events"]
    assert events["events"] > 0
    assert events["events_per_s"] > 0
    assert events["requests_per_s"] > 0

    # Event-churn regression guard: a Rubik run costs one arrival plus
    # one completion event per request — DVFS transitions apply lazily
    # and must NOT consume simulator events. If this trips, something
    # reintroduced per-transition (or other per-request) heap traffic.
    assert (events["events"]
            <= run_bench.EVENTS_PER_REQUEST_BUDGET
            * run_bench.QUICK["run_requests"]), (
        f"event churn crept back in: {events['events']} events for "
        f"{run_bench.QUICK['run_requests']} requests")

    sweep = results["load_sweep"]
    assert sweep["wall_s"] > 0
    assert sweep["points"] == len(run_bench.QUICK["sweep_loads"])

    # Unified-runner guards: one regenerate-all invocation spawns the
    # shared worker pool at most once (zero on a single-CPU machine,
    # where the whole flow stays serial), and the process-wide
    # latency-bound memo means each (app, seed, num_requests) bound is
    # replayed at most once no matter how many points ask for it.
    regen = results["regenerate"]
    assert regen["wall_s"] > 0
    assert list(regen["experiments"]) == \
        list(run_bench.QUICK["regen_experiments"])
    assert regen["pools_created"] <= 1, (
        f"regenerate-all spawned {regen['pools_created']} pools; the "
        "shared WorkerPool must be created at most once per invocation")
    if regen["pools_created"] == 0:
        # Serial flow: the parent cache saw every bound request. table1
        # needs no bound; every ablation point shares (masstree,
        # seed 21, 600) — one replay total, however many points ask.
        assert regen["latency_bound_computed"] == 1
        assert regen["latency_bound_requested"] >= 1
    else:
        # Pooled flow: per-worker caches are not aggregated, and the
        # bench must say so rather than report parent-only counts.
        assert regen["latency_bound_computed"] is None
        assert regen["latency_bound_requested"] is None

    # Refresh-subsystem guards (PR 4). A warm rerun of the identical
    # trace must reuse every refresh from the table cache, and a
    # steady-state (constant-demand) run must rebuild tables at most
    # once after warm-up — its demand window normalizes to the same
    # fingerprint at every refresh, so repeated rebuilds mean the
    # incremental profiler or the fingerprint sprung a leak.
    churn = results["refresh_churn"]
    assert churn["refreshes"] >= 2
    cold, warm = churn["cold"], churn["warm"]
    assert cold["cache_misses"] >= 1
    assert cold["snapshots"] == cold["cache_hits"] + cold["cache_misses"]
    assert warm["cache_misses"] == 0, (
        f"warm rerun rebuilt {warm['cache_misses']} tables; identical "
        "demand windows must reuse the cached pairs")
    assert warm["cache_hits"] == warm["snapshots"] == cold["snapshots"]
    steady = churn["steady_state"]
    assert steady["snapshots"] >= 2
    assert steady["cache_misses"] <= 1, (
        f"steady-state run rebuilt tables {steady['cache_misses']} "
        "times; a stable demand window must rebuild at most once")
    assert steady["cache_hits"] == \
        steady["snapshots"] - steady["cache_misses"]
    assert churn["snapshot_incremental_us"] > 0
    assert churn["snapshot_rebuild_us"] > 0
    # Capacity cliff guard: one run's distinct fingerprints must fit the
    # cache, or the cold run evicts its own entries and the warm-rerun
    # guarantee above degrades for reasons invisible in the miss counts.
    assert churn["table_cache"]["evictions"] == 0, (
        f"refresh cache evicted {churn['table_cache']['evictions']} "
        "entries within one cold+warm pair; raise TailTableCache "
        "maxsize above the per-run refresh count "
        f"({churn['refreshes']} refreshes here)")

    # Decision-kernel guards (PR 5). The kernel path must cover every
    # decision through its counted branches, steady state must never
    # invalidate kernel state through a refresh (fingerprints re-resolve
    # to the same pair, which instead *carries* the state), and the
    # overload trace must actually exercise the certificate fold + O(1)
    # event paths the kernel exists for.
    dk = results["decision_kernel"]
    for section in ("moderate", "overload"):
        assert dk[section]["kernel_wall_s"] > 0
        assert dk[section]["scalar_wall_s"] > 0
    # `decisions` is defined as the sum of the branch counters, so the
    # independent check is against the event count: one decision per
    # arrival + one per completion, with no event escaping a counted
    # branch (a new early-return path that forgets its counter would
    # make this total come up short).
    mod = dk["kernel_stats"]["moderate"]
    assert mod["decisions"] == 2 * run_bench.QUICK["run_requests"]
    over = dk["kernel_stats"]["overload"]
    assert over["cert_folds"] > 0
    assert over["fast_arrivals"] + over["fast_completions"] > 0
    steady = dk["kernel_stats"]["steady_state"]
    assert steady["invalidations_tables"] <= 1, (
        f"steady-state refreshes invalidated the kernel "
        f"{steady['invalidations_tables']} times; identical fingerprints "
        "must re-resolve to the same table pair and carry kernel state")
    assert steady["refresh_carries"] > 0
    assert dk["steady_refresh_stats"]["object_carries"] == \
        steady["refresh_carries"]

    # Native-kernel guards (PR 6). The section must always report the
    # loader's status; when the library is available the default path
    # must actually be native, the span loop must cover every decision
    # (one per arrival + one per completion — a C branch that forgot
    # its counter would come up short), and its counters must agree
    # with the Python kernel's on the identical trace. When it is not,
    # the fallback must be recorded, not silently absent.
    nk = results["native_kernel"]
    if nk["available"]:
        assert nk["build"]["attempted"] and nk["build"]["loaded"]
        span = nk["span"]
        assert span["decision_path"] == "native"
        assert span["decisions"] == 2 * span["requests"]
        assert nk["moderate_wall_s"] > 0
        assert nk["overload_wall_s"] > 0
        assert dk["kernel_stats"]["moderate_native"] == \
            dk["kernel_stats"]["moderate_kernel"]
        assert dk["kernel_stats"]["overload_native"] == \
            dk["kernel_stats"]["overload_kernel"]
    else:
        assert nk["fallback"]
        # Either the env gate opted out, or a build/load failure was
        # recorded — never a silent absence.
        assert nk["build"]["env_mode"] == "0" or nk["build"]["error"]

    # Artifact-store guards (PR 7). A warm regeneration over a freshly
    # cold-filled store must recompute zero cells — every cell replays
    # from disk (zero misses, zero puts), the hit count equals the cell
    # population the cold pass persisted, and the warm wall collapses to
    # a small fraction of the cold one (replay is deserialization, not
    # simulation). A corrupt store would surface as errors > 0.
    rc = results["regenerate_cached"]
    assert list(rc["experiments"]) == \
        list(run_bench.QUICK["regen_experiments"])
    assert rc["cells"] > 0
    assert rc["cold"]["misses"] == rc["cold"]["puts"] == rc["cells"]
    assert rc["cold"]["hits"] == 0 and rc["cold"]["errors"] == 0
    assert rc["warm"]["misses"] == 0 and rc["warm"]["puts"] == 0, (
        f"warm regeneration recomputed {rc['warm']['misses']} cells; "
        "a fully-cached store must serve every cell from disk")
    assert rc["warm"]["hits"] == rc["cells"]
    assert rc["warm"]["errors"] == 0
    assert rc["warm_wall_s"] <= 0.2 * rc["cold_wall_s"], (
        f"warm regeneration took {rc['warm_wall_s']:.3f}s vs cold "
        f"{rc['cold_wall_s']:.3f}s; cached replay must be >=5x faster")

    # Resilience guards (PR 9). The hardened executor is opt-in, so its
    # fault-free path must be a bitwise no-op: identical results to
    # plain parallel_map, every retry/failure/rebuild counter at zero,
    # no ambient fault plan leaking in from the environment, and the
    # per-cell dispatch overhead within noise of the baseline batch.
    res = results["resilience"]
    assert res["points"] > 0
    assert res["fault_plan_active"] is False, (
        "a REPRO_FAULT_PLAN was active while recording a bench point")
    assert res["identical"] is True, (
        "fault-free resilient_map diverged bitwise from parallel_map")
    assert (res["retries"], res["failures"], res["timeouts"],
            res["worker_losses"], res["pool_rebuilds"]) == (0,) * 5
    assert res["degraded_serial"] is False
    assert res["overhead_vs_baseline"] < 2.0, (
        f"resilient dispatch cost {res['overhead_vs_baseline']:.2f}x "
        "the plain sweep on the fault-free path")

    # Fleet guards (PR 10). Calibration must have persisted one anchor
    # cell per (app, anchor load) into the section's throwaway store;
    # every tracked size must report a positive wall and throughput; the
    # router must never shed more than the shed-on-overflow baseline;
    # and the shard-scaling A/B must be bitwise-identical — invariant
    # 21 is the layer's contract, so a False here means the shard
    # partition leaked into the numbers.
    fleet = results["fleet"]
    from repro.fleet.routing import ANCHOR_LOADS
    from repro.workloads.apps import app_names
    assert fleet["anchor_cells"] == len(ANCHOR_LOADS) * len(app_names())
    assert fleet["calibration_wall_s"] > 0
    assert list(fleet["scale"]) == \
        [str(n) for n in run_bench.QUICK["fleet_servers"]]
    for entry in fleet["scale"].values():
        assert entry["wall_s"] > 0
        assert entry["servers_per_s"] > 0
        assert entry["routed_shed_load"] <= entry["baseline_shed_load"]
    shard = fleet["shard_scaling"]
    assert shard["servers"] == max(run_bench.QUICK["fleet_servers"])
    assert shard["one_shard_wall_s"] > 0
    assert shard["two_shard_wall_s"] > 0
    assert shard["identical"] is True, (
        "2-shard routed fleet diverged bitwise from the 1-shard "
        "reference (invariant 21)")


def test_dirty_tree_refuses_to_record(tmp_path, monkeypatch):
    """The lint gate: findings abort main() before any benchmark runs,
    and no output file is written."""
    out = tmp_path / "bench.json"
    monkeypatch.setattr(run_bench, "check_lint", lambda: {
        "clean": False,
        "findings": ["x.py:1: [determinism] planted finding"],
        "files_scanned": 1,
        "rules_run": ["determinism"],
    })
    with pytest.raises(SystemExit, match="refusing to record"):
        run_bench.main(["--quick", "--output", str(out)])
    assert not out.exists()
