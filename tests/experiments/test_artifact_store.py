"""Artifact-store tests: fingerprint axes, env gates, on-disk
semantics (corruption, atomicity, invalidation), ``run_cells``
hit/miss behaviour, and the PR acceptance pins — a warm regeneration
recomputes zero cells bitwise-identically, and bumping one driver's
version tag recomputes exactly that driver's cells.
"""

import dataclasses
import pickle
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import artifacts, configs, runner
from repro.experiments.artifacts import (
    ArtifactStore,
    activate,
    active_store,
    artifact_dir,
    cache_mode,
    canonical,
    cell_fingerprint,
    default_store,
)
from repro.experiments import fig16_datacenter
from repro.experiments.common import latency_bound, make_cells, run_cells
from repro.perf import WorkerPool, parallel_map
from repro.resilience import execution
from repro.workloads.apps import MASSTREE

N = 300  # tiny but queueing-meaningful


def _fn(args):
    """Deterministic module-level cell worker for store tests."""
    x, y = args
    return {"sum": x + y, "arr": np.arange(3) * x}


def _other_fn(args):
    x, y = args
    return x - y


def _store_probe(_):
    """Module-level pool probe: the worker's pid and whether it sees a
    store."""
    import os

    return os.getpid(), active_store() is None


@dataclasses.dataclass(frozen=True)
class _Pair:
    x: object
    y: object


#: Leaf groups whose members are equal, print alike, or share bytes
#: across types; a drawn tree pair picks both leaves from one group.
_CONFUSABLE = (
    (0, False, 0.0, -0.0, np.int64(0), np.bool_(False), np.float32(0.0)),
    (1, True, 1.0, np.float64(1.0), np.int64(1), np.int32(1),
     np.uint8(1), np.bool_(True)),
    (0.5, np.float32(0.5), np.float64(0.5), np.float16(0.5), "0.5",
     float("nan")),
    (None, "", b"", np.str_("")),
    (np.array([1, 0]), np.array([1, 0], dtype=np.int32),
     np.array([1.0, 0.0]), np.array([True, False]), np.array([[1, 0]]),
     np.array(1), np.arange(4)[::2], np.array([0, 2])),
    (_fn, _other_fn),
)


@st.composite
def _tree_pair(draw, depth=0):
    kind = draw(st.sampled_from(("leaf", "seq", "dict", "dataclass")
                                if depth < 3 else ("leaf",)))
    if kind == "leaf":
        group = draw(st.sampled_from(_CONFUSABLE))
        return draw(st.sampled_from(group)), draw(st.sampled_from(group))
    if kind == "seq":
        kids = draw(st.lists(_tree_pair(depth + 1), max_size=3))
        ta, tb = draw(st.sampled_from((tuple, list))), \
            draw(st.sampled_from((tuple, list)))
        return ta(k[0] for k in kids), tb(k[1] for k in kids)
    if kind == "dict":
        keys = draw(st.lists(st.sampled_from("ab"), unique=True,
                             max_size=2))
        kids = [draw(_tree_pair(depth + 1)) for _ in keys]
        return ({k: v[0] for k, v in zip(keys, kids)},
                {k: v[1] for k, v in zip(keys, kids)})
    (xa, xb), (ya, yb) = draw(_tree_pair(depth + 1)), \
        draw(_tree_pair(depth + 1))
    return _Pair(xa, ya), _Pair(xb, yb)


def _identical(a, b):
    """Type and value equal at every node: floats by ``float.hex``
    (``np.float64`` is a float), numpy values by dtype, shape, bytes."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    if type(a) is not type(b):
        return False
    if isinstance(a, (np.ndarray, np.generic)):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _identical(a[k], b[k]) for k in a)
    if isinstance(a, _Pair):
        return _identical(a.x, b.x) and _identical(a.y, b.y)
    return a == b


class TestFingerprint:
    def test_deterministic(self):
        a = cell_fingerprint("d", "1", _fn, (1, 2.5))
        b = cell_fingerprint("d", "1", _fn, (1, 2.5))
        assert a == b and len(a) == 64

    @pytest.mark.parametrize("kwargs", [
        dict(driver="e"),
        dict(version="2"),
        dict(fn=_other_fn),
        dict(args=(1, 2.6)),
    ])
    def test_every_axis_changes_it(self, kwargs):
        base = dict(driver="d", version="1", fn=_fn, args=(1, 2.5))
        assert cell_fingerprint(**base) != cell_fingerprint(**{
            **base, **kwargs})

    def test_int_float_and_type_distinctions(self):
        assert canonical(1) != canonical(1.0)
        assert canonical(True) != canonical(1)
        assert canonical((1, 2)) != canonical([1, 2])
        assert canonical("1") != canonical(1)

    def test_float_canonical_is_exact(self):
        a = canonical(0.1 + 0.2)
        b = canonical(0.3)
        assert a != b  # repr would round these together at low precision

    def test_ndarray_content_and_dtype(self):
        x = np.arange(4, dtype=np.float64)
        assert canonical(x) == canonical(x.copy())
        assert canonical(x) != canonical(x.astype(np.float32))
        assert canonical(x) != canonical(x + 1)

    def test_dataclass_fields_recurse(self):
        app2 = dataclasses.replace(MASSTREE, mem_fraction=0.999)
        assert canonical(MASSTREE) == canonical(
            dataclasses.replace(MASSTREE))
        assert canonical(MASSTREE) != canonical(app2)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            canonical(object())
        with pytest.raises(TypeError, match="cannot fingerprint"):
            canonical(np.array([1, "x"], dtype=object))  # pointer bytes

    def test_unknown_type_inside_tuple_raises(self):
        with pytest.raises(TypeError):
            cell_fingerprint("d", "1", _fn, (1, object()))

    @settings(max_examples=200, deadline=None)
    @given(_tree_pair())
    def test_shared_fingerprint_only_for_identical_trees(self, pair):
        a, b = pair
        assert (cell_fingerprint("d", "1", _fn, a)
                == cell_fingerprint("d", "1", _fn, b)) == _identical(a, b)


class TestEnvGates:
    @pytest.mark.parametrize("raw", ["", "-3", "abc"])
    def test_invalid_cache_mode_warns_once_reads_auto(self, raw,
                                                      monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, raw)
        with pytest.warns(RuntimeWarning, match="REPRO_ARTIFACT_CACHE"):
            assert cache_mode() == "auto"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache_mode() == "auto"  # second read: no re-warn

    @pytest.mark.parametrize("raw,expect", [
        ("0", "0"), ("1", "1"), ("auto", "auto"),
        (" 1 ", "1"), ("AUTO", "auto"),
    ])
    def test_valid_cache_modes(self, raw, expect, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache_mode() == expect

    def test_unset_cache_mode_is_auto(self):
        assert cache_mode() == "auto"

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_empty_artifact_dir_warns_once_uses_default(self, raw,
                                                        monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, raw)
        with pytest.warns(RuntimeWarning, match="REPRO_ARTIFACT_DIR"):
            assert artifact_dir() == \
                artifacts.Path(artifacts.DEFAULT_ARTIFACT_DIR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            artifact_dir()

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_odd_but_valid_artifact_dirs(self, raw, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert str(artifact_dir()) == raw

    def test_mode_zero_beats_activation(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, "0")
        with activate():
            assert active_store() is None

    def test_mode_one_enables_without_activation(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, "1")
        assert active_store() is default_store()

    def test_auto_defers_to_activation(self):
        assert active_store() is None
        with activate() as store:
            assert active_store() is store
        assert active_store() is None


class TestStoreSemantics:
    def test_roundtrip_bitwise(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        value = {"f": 0.1 + 0.2, "arr": np.linspace(0, 1, 7)}
        fp = cell_fingerprint("d", "1", _fn, (1, 2.0))
        store.put("d", fp, value)
        found, loaded = store.get("d", fp)
        assert found
        assert loaded["f"] == value["f"]  # bitwise float equality
        np.testing.assert_array_equal(loaded["arr"], value["arr"])
        assert store.stats()["puts"] == 1 and store.stats()["hits"] == 1

    def test_missing_counts_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        found, value = store.get("d", "0" * 64)
        assert not found and value is None
        assert store.misses == 1 and store.errors == 0

    def test_corrupt_artifact_warns_once_deletes_recomputes(self,
                                                            tmp_path):
        store = ArtifactStore(tmp_path / "s")
        fp = "a" * 64
        store.put("d", fp, 42)
        path = store.path_for("d", fp)
        path.write_bytes(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="corrupt artifact"):
            found, _ = store.get("d", fp)
        assert not found
        assert not path.exists()  # deleted, so a recompute can re-put
        assert store.errors == 1
        # Same path corrupted again: counted, but not re-warned.
        store.put("d", fp, 42)
        path.write_bytes(b"garbage again")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found, _ = store.get("d", fp)
        assert not found and store.errors == 2
        # After recompute the cell serves normally.
        store.put("d", fp, 42)
        assert store.get("d", fp) == (True, 42)

    def test_truncated_artifact_is_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        fp = "b" * 64
        store.put("d", fp, {"k": 1})
        path = store.path_for("d", fp)
        with open(path, "wb") as fh:
            pickle.dump({"driver": "d"}, fh)  # header only, no payload
        with pytest.warns(RuntimeWarning, match="corrupt artifact"):
            found, _ = store.get("d", fp)
        assert not found and not path.exists()

    def test_invalidate_exactly_one_driver(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        for driver in ("d1", "d2"):
            for i in range(3):
                store.put(driver, f"{i}{'c' * 63}", i)
        assert store.cached_cells() == 6
        assert store.invalidate("d1") == 3
        assert store.cached_cells("d1") == 0
        assert store.cached_cells("d2") == 3
        assert store.invalidate("missing") == 0

    def test_manifest_reads_headers_without_payloads(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        fp = "d" * 64
        store.put("drv", fp, [1, 2, 3], meta={"version": "7"})
        entries = store.manifest()
        assert len(entries) == 1
        assert entries[0]["driver"] == "drv"
        assert entries[0]["fingerprint"] == fp
        assert entries[0]["version"] == "7"
        assert entries[0]["schema"] == artifacts.STORE_SCHEMA_VERSION

    def test_concurrent_put_get_never_tears(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        fp = "e" * 64
        value = {"arr": np.arange(512), "x": 0.12345}
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                store.put("d", fp, value)

        def reader():
            while not stop.is_set():
                found, got = store.get("d", fp)
                if found:
                    try:
                        assert got["x"] == value["x"]
                        np.testing.assert_array_equal(
                            got["arr"], value["arr"])
                    except AssertionError as exc:  # pragma: no cover
                        failures.append(exc)
                        stop.set()

        threads = [threading.Thread(target=writer) for _ in range(2)] + \
                  [threading.Thread(target=reader) for _ in range(4)]
        with warnings.catch_warnings():
            # A torn read would also surface as a corrupt-artifact warning.
            warnings.simplefilter("error")
            for t in threads:
                t.start()
            timer = threading.Timer(1.0, stop.set)
            timer.start()
            for t in threads:
                t.join()
            timer.cancel()
        assert not failures
        assert store.errors == 0
        assert store.get("d", fp)[0]


def _assert_fn_results(actual, items):
    assert len(actual) == len(items)
    for got, args in zip(actual, items):
        expected = _fn(args)
        assert got["sum"] == expected["sum"]
        np.testing.assert_array_equal(got["arr"], expected["arr"])


class TestStaleTmpSweep:
    """Satellite: orphaned ``.*.tmp`` staging files (a writer SIGKILLed
    between tmp-write and rename) are swept at store open."""

    def _orphan(self, root, driver="fig06", age_s=3600.0, name=None):
        d = root / driver
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / (name or ".deadbeef.1234.0.tmp")
        tmp.write_bytes(b"torn")
        import os
        old = tmp.stat().st_mtime - age_s
        os.utime(tmp, (old, old))
        return tmp

    def test_old_orphans_swept_warned_and_counted(self, tmp_path):
        root = tmp_path / "store"
        a = self._orphan(root, "fig06")
        b = self._orphan(root, "fig09", name=".cafe.99.1.tmp")
        with pytest.warns(RuntimeWarning, match="2 orphaned"):
            store = ArtifactStore(root)
        assert not a.exists() and not b.exists()
        assert store.stats()["stale_tmps_removed"] == 2

    def test_fresh_tmp_left_for_live_writer(self, tmp_path):
        root = tmp_path / "store"
        tmp = self._orphan(root, age_s=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ArtifactStore(root)
        assert tmp.exists()
        assert store.stats()["stale_tmps_removed"] == 0

    def test_sweep_never_touches_real_artifacts(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.put("fig06", "a" * 16, {"v": 1})
        self._orphan(root)
        with pytest.warns(RuntimeWarning, match="orphaned"):
            reopened = ArtifactStore(root)
        found, value = reopened.get("fig06", "a" * 16)
        assert found and value == {"v": 1}


class TestRunCells:
    ITEMS = [(1, 2.0), (3, 4.0), (5, 6.0)]

    def test_inactive_store_is_plain_map(self):
        out = run_cells("table1", _fn, self.ITEMS, processes=1)
        _assert_fn_results(out, self.ITEMS)
        assert default_store().cached_cells() == 0  # nothing written

    def test_cold_then_warm(self):
        with activate() as store:
            cold = run_cells("table1", _fn, self.ITEMS, processes=1)
            assert (store.hits, store.misses, store.puts) == (0, 3, 3)
            store.reset_stats()
            warm = run_cells("table1", _fn, self.ITEMS, processes=1)
            assert (store.hits, store.misses, store.puts) == (3, 0, 0)
        for c, w in zip(cold, warm):
            assert c["sum"] == w["sum"]
            np.testing.assert_array_equal(c["arr"], w["arr"])

    def test_partial_miss_dispatches_only_misses(self):
        with activate() as store:
            run_cells("table1", _fn, self.ITEMS[:2], processes=1)
            store.reset_stats()
            out = run_cells("table1", _fn, self.ITEMS, processes=1)
            assert (store.hits, store.misses, store.puts) == (2, 1, 1)
        _assert_fn_results(out, self.ITEMS)

    def test_env_force_enable_without_activation(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, "1")
        run_cells("table1", _fn, self.ITEMS, processes=1)
        assert default_store().cached_cells("table1") == 3

    def test_env_force_disable_under_activation(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, "0")
        with activate():
            run_cells("table1", _fn, self.ITEMS, processes=1)
        assert default_store().cached_cells() == 0

    def test_distinct_args_are_distinct_cells(self):
        cells = make_cells("table1", _fn, self.ITEMS)
        assert len({c.fingerprint for c in cells}) == len(self.ITEMS)


class TestStoreStaysInParent:
    """Invariant 18: store get/put happens in the parent process only."""

    @pytest.fixture(autouse=True)
    def real_pool(self, monkeypatch):
        monkeypatch.delenv(execution.MAX_WORKERS_ENV, raising=False)

    def test_pool_worker_sees_no_store_even_when_forced(self, monkeypatch):
        import os

        monkeypatch.setenv(artifacts.ARTIFACT_CACHE_ENV, "1")
        assert active_store() is not None
        seen = parallel_map(_store_probe, range(4), processes=2)
        assert all(pid != os.getpid() for pid, _ in seen)
        assert all(storeless for _, storeless in seen)

    def test_nested_fleet_cells_are_not_stored(self, tmp_path):
        # Each fig16 cell runs a nested fleet sweep inside its worker;
        # only the parent's fig16 cells reach the disk.
        store = ArtifactStore(tmp_path / "store")
        with activate(store), WorkerPool(2):
            fig16_datacenter.run_fig16(loads=(0.1, 0.3, 0.6), num_mixes=1,
                                       requests_per_core=150)
        drivers = [path.parent.name
                   for path in store.root.rglob("*.pkl")]
        assert drivers == ["fig16"] * store.stats()["puts"]
        assert store.stats()["puts"] == 3
        assert not (store.root / "fleet").exists()


class TestColdWarmRegenerate:
    """The PR acceptance pins, on the real drivers at reduced scale."""

    DRIVERS = ["fig06", "table1", "ablations"]

    def test_warm_recomputes_zero_cells_bitwise(self):
        store = default_store()

        def timed_regenerate():
            latency_bound.cache_clear()  # time the store, not the memo
            t0 = time.perf_counter()
            reports = runner.regenerate(self.DRIVERS, num_requests=N,
                                        processes=1, use_cache=True)
            return reports, time.perf_counter() - t0

        cold, cold_wall = timed_regenerate()
        cold_stats = store.stats()
        assert cold_stats["hits"] == 0
        assert cold_stats["puts"] == cold_stats["misses"] > 0
        assert cold_stats["errors"] == 0
        store.reset_stats()
        warm, warm_wall = timed_regenerate()
        warm_stats = store.stats()
        assert warm_stats["misses"] == 0 and warm_stats["puts"] == 0
        assert warm_stats["hits"] == cold_stats["puts"]
        assert warm_stats["errors"] == 0
        assert warm == cold  # report strings identical char-for-char
        # Replay is deserialization, not simulation.
        assert warm_wall <= 0.2 * cold_wall, (
            f"warm {warm_wall:.3f}s vs cold {cold_wall:.3f}s")

    def test_version_bump_recomputes_exactly_that_driver(self,
                                                         monkeypatch):
        store = default_store()
        runner.regenerate(["table1", "ablations"], num_requests=N,
                          processes=1, use_cache=True)
        bumped = dataclasses.replace(configs.CONFIGS["table1"],
                                     version="test-bump")
        monkeypatch.setitem(configs.CONFIGS, "table1", bumped)
        store.reset_stats()
        runner.regenerate(["table1", "ablations"], num_requests=N,
                          processes=1, use_cache=True)
        per = store.stats()["per_driver"]
        assert per["table1"]["misses"] > 0
        assert per["table1"]["hits"] == 0
        assert per["ablations"]["misses"] == 0
        assert per["ablations"]["hits"] > 0

    def test_refresh_invalidates_exactly_named_driver(self):
        store = default_store()
        runner.regenerate(["table1", "ablations"], num_requests=N,
                          processes=1, use_cache=True)
        store.reset_stats()
        runner.regenerate(["table1", "ablations"], num_requests=N,
                          processes=1, use_cache=True,
                          refresh=["table1"])
        per = store.stats()["per_driver"]
        assert per["table1"]["misses"] > 0 and per["table1"]["hits"] == 0
        assert per["ablations"]["misses"] == 0

    def test_no_cache_regenerate_writes_nothing(self):
        runner.regenerate(["table1"], num_requests=N, processes=1,
                          use_cache=False)
        assert default_store().cached_cells() == 0


class TestCacheCLI:
    def test_cli_cold_then_warm_counters(self, capsys):
        assert runner.main(["table1", "-n", str(N)]) == 0
        out = capsys.readouterr().out
        assert "0 hits, 5 misses" in out
        assert runner.main(["table1", "-n", str(N)]) == 0
        out = capsys.readouterr().out
        assert "5 hits, 0 misses" in out

    def test_cli_no_cache_writes_nothing(self, capsys):
        assert runner.main(["table1", "-n", str(N), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "artifact-cache" not in out
        assert default_store().cached_cells() == 0

    def test_cli_refresh_only_named_driver(self, capsys):
        runner.main(["table1", "ablations", "-n", str(N)])
        capsys.readouterr()
        assert runner.main(["table1", "ablations", "-n", str(N),
                            "--refresh", "table1"]) == 0
        out = capsys.readouterr().out
        # table1's 5 cells recompute; ablations' 9 replay as hits.
        assert "9 hits, 5 misses" in out

    def test_cli_refresh_unknown_name_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["table1", "--refresh", "fig99"])
        assert excinfo.value.code == 2
        assert "fig99" in capsys.readouterr().err

    def test_cli_list_shows_cached_counts(self, capsys):
        runner.main(["table1", "-n", str(N)])
        capsys.readouterr()
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("table1"):
                assert "[  5 cached]" in line
                break
        else:  # pragma: no cover
            pytest.fail("table1 missing from --list output")
