"""Content-addressed experiment artifact store (perf layer 8; see
docs/performance.md).

Every experiment driver's unit of work is a **cell**: one picklable
point dispatched through :func:`repro.experiments.common.run_cells`
(an ``(app, load, seed)`` tuple of Fig. 6, one colocation pair of
Fig. 15, one ablation variant ...). A cell's result is a pure function
of its declarative inputs, so it can be persisted once and replayed
forever — the ``snapshot_fingerprint`` idiom of
:mod:`repro.core.table_cache`, lifted from tail tables to whole
experiment cells and from process memory to disk.

The store maps a **cell fingerprint** — a SHA-256 over the canonical
encoding of ``(schema version, driver name, driver version tag, worker
function reference, default kernel path, cell args)`` — to a pickle on
disk under one directory per driver::

    .repro-artifacts/<driver>/<fingerprint>.pkl

Each artifact file holds two consecutive pickles: a small metadata
header (driver, version, function reference, creation time) and the
cell's value, so the manifest can be indexed without loading payloads.
Writes go through a temp file + :func:`os.replace`, so concurrent
writers of the same cell race benignly (last atomic rename wins; a
reader never observes a partial file). Corrupted or truncated artifacts
warn once per file, are deleted, and fall back to recompute.

Activation is explicit: :func:`active_store` returns ``None`` (cells
compute directly) unless a store was activated via :func:`activate` —
the regenerate CLI does this by default — or ``REPRO_ARTIFACT_CACHE=1``
forces the default store on. Environment gates follow the
``REPRO_MAX_WORKERS``/``REPRO_NATIVE`` validation idiom (invalid values
warn once per distinct value and read as unset):

* ``REPRO_ARTIFACT_CACHE`` — ``"1"`` force-enable (even without an
  activation), ``"0"`` force-disable (even under the CLI), ``"auto"`` /
  unset — active only inside an :func:`activate` context.
* ``REPRO_ARTIFACT_DIR`` — store root (default ``.repro-artifacts``);
  an empty/whitespace value warns once and reads as unset.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import os
import pickle
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro import config
from repro.resilience import faults

#: Environment variable naming the store root directory.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Environment tri-state gating the cache ("1"/"0"/"auto").
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"

#: Default store root, relative to the working directory.
DEFAULT_ARTIFACT_DIR = ".repro-artifacts"

#: Bumping this invalidates every artifact ever written (fingerprints
#: include it): raise on any change to the canonical encoding or the
#: on-disk layout.
STORE_SCHEMA_VERSION = 1

#: A ``.*.tmp`` staging file this old at store open is an orphan — its
#: writer died between tmp-write and the atomic ``os.replace`` — and is
#: swept. Generous relative to any real write (a cell pickle lands in
#: milliseconds), so a concurrent writer's live tmp is never touched.
STALE_TMP_AGE_S = 60.0

#: Invalid env values already warned about ((var, raw) — once each).
_warned_env_values: Set[Tuple[str, str]] = set()

#: Artifact files already warned about as corrupt (once per path).
_warned_corrupt_paths: Set[str] = set()

#: Innermost activated store (set by :func:`activate`).
_active_store: Optional["ArtifactStore"] = None

#: Memoized default stores, keyed by resolved root path — stats
#: accumulate per process per root.
_default_stores: Dict[Path, "ArtifactStore"] = {}

#: Unique suffixes for temp files (atomic-rename staging).
_tmp_counter = itertools.count()


def cache_mode() -> str:
    """The validated ``REPRO_ARTIFACT_CACHE`` mode: ``"1"``, ``"0"`` or
    ``"auto"``.

    Invalid values (``""``, ``"-3"``, ``"abc"``) warn once per distinct
    raw value (registry owned here, reset by the test fixtures) and
    read as unset (``"auto"``), via the shared gate helper in
    :mod:`repro.config`.
    """
    return config.env_tristate(ARTIFACT_CACHE_ENV, _warned_env_values)


def artifact_dir() -> Path:
    """The validated store root from ``REPRO_ARTIFACT_DIR``.

    An empty or whitespace-only value warns once and falls back to the
    default; any other string is a legitimate directory name (``"abc"``
    and ``"-3"`` are valid paths, unlike the integer envs).
    """
    return config.env_path(ARTIFACT_DIR_ENV, DEFAULT_ARTIFACT_DIR,
                           _warned_env_values)


def _function_ref(fn: Callable) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def default_kernel_tag() -> str:
    """The decision path a default ``Rubik()`` dispatches to.

    All three decision paths are pinned bitwise-identical, so this knob
    can never change a cell's *value* — but it is a code-relevant input
    (the code that actually ran), so it joins the fingerprint: a store
    filled under one kernel path never silently vouches for another.
    """
    from repro.core._native import build as native_build
    return "native" if native_build.available() else "kernel"


def canonical(obj: Any) -> Any:
    """A hashable, repr-stable canonical form of a cell argument tree.

    Handles the types experiment cells are declared with: primitives
    (floats via ``float.hex`` — exact, no repr rounding; ``np.float64``
    is a ``float``), tuples/lists, dicts, numpy scalars (dtype + raw
    bytes) and non-object arrays (dtype + shape + raw bytes), frozen
    dataclasses (``AppProfile``, ``SchemeContext``, ``BatchMix`` ...)
    by field recursion, and function references. Anything else raises:
    a silently mis-canonicalized argument would alias distinct cells,
    and the store must never serve the wrong artifact.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return (type(obj).__name__, obj)
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, np.generic):
        return ("npscalar", obj.dtype.str, obj.tobytes())
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        return ("ndarray", obj.dtype.str, obj.shape,
                np.ascontiguousarray(obj).tobytes())
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__, tuple(canonical(x) for x in obj))
    if isinstance(obj, dict):
        return ("dict", tuple(sorted(
            (canonical(k), canonical(v)) for k, v in obj.items())))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = tuple((f.name, canonical(getattr(obj, f.name)))
                       for f in dataclasses.fields(obj))
        return (f"{cls.__module__}.{cls.__qualname__}", fields)
    if callable(obj):
        return ("callable", _function_ref(obj))
    raise TypeError(
        f"cannot fingerprint cell argument of type {type(obj)!r}: {obj!r}; "
        "declare cells with primitives, numpy arrays, or dataclasses")


def cell_fingerprint(driver: str, version: str, fn: Callable,
                     args: Any) -> str:
    """SHA-256 hex digest identifying one cell's declarative inputs."""
    payload = (
        ("schema", STORE_SCHEMA_VERSION),
        ("driver", driver),
        ("version", version),
        ("fn", _function_ref(fn)),
        ("kernel", default_kernel_tag()),
        ("args", canonical(args)),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class ArtifactStore:
    """Disk-backed content-addressed store of experiment cell results.

    One subdirectory per driver; one ``<fingerprint>.pkl`` per cell.
    Counters (``hits``/``misses``/``puts``/``errors``, plus the same
    per driver) describe this process's traffic through this store
    object — the acceptance guards ("a warm run recomputes zero cells",
    "a version bump recomputes exactly one driver") are written against
    them.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else artifact_dir()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0
        self.stale_tmps_removed = 0
        self.per_driver: Dict[str, Dict[str, int]] = {}
        self._sweep_stale_tmps()

    def _sweep_stale_tmps(self) -> None:
        """Remove orphaned ``.*.tmp`` staging files at store open.

        A writer killed between tmp-write and ``os.replace`` leaks its
        temp file forever (the in-process cleanup only covers raising
        paths, not SIGKILL). Files older than :data:`STALE_TMP_AGE_S`
        cannot belong to a live writer, so they are deleted — one
        summary warning, counted in :meth:`stats`.
        """
        if not self.root.is_dir():
            return
        # repro-lint: allow(determinism) -- tmp-age housekeeping only
        cutoff = time.time() - STALE_TMP_AGE_S
        removed = 0
        for tmp in sorted(self.root.glob("*/.*.tmp")):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # raced with a concurrent sweep/writer
        if removed:
            self.stale_tmps_removed += removed
            warnings.warn(
                f"swept {removed} orphaned artifact tmp file(s) "
                f"under {self.root}", RuntimeWarning, stacklevel=3)

    # -- paths -----------------------------------------------------------

    def _driver_dir(self, driver: str) -> Path:
        return self.root / driver

    def path_for(self, driver: str, fingerprint: str) -> Path:
        return self._driver_dir(driver) / f"{fingerprint}.pkl"

    # -- counters --------------------------------------------------------

    def _count(self, driver: str, field: str) -> None:
        setattr(self, field, getattr(self, field) + 1)
        row = self.per_driver.setdefault(
            driver, {"hits": 0, "misses": 0, "puts": 0, "errors": 0})
        row[field] += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
            "stale_tmps_removed": self.stale_tmps_removed,
            "per_driver": {d: dict(row)
                           for d, row in self.per_driver.items()},
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.puts = self.errors = 0
        self.per_driver.clear()

    # -- get / put -------------------------------------------------------

    def get(self, driver: str, fingerprint: str) -> Tuple[bool, Any]:
        """``(found, value)`` for one cell; corrupt artifacts warn once
        per file, are deleted, and read as a miss."""
        path = self.path_for(driver, fingerprint)
        try:
            with open(path, "rb") as fh:
                # Injected corrupt read: InjectedFault lands in the
                # same warn-once discard-and-recompute branch a truly
                # torn file would (only consulted for files that exist).
                faults.maybe_inject("artifact.corrupt_read")
                pickle.load(fh)          # metadata header
                value = pickle.load(fh)  # payload
        except FileNotFoundError:
            self._count(driver, "misses")
            return False, None
        except Exception as exc:
            self._count(driver, "errors")
            self._count(driver, "misses")
            key = str(path)
            if key not in _warned_corrupt_paths:
                _warned_corrupt_paths.add(key)
                warnings.warn(
                    f"discarding corrupt artifact {path} "
                    f"({type(exc).__name__}: {exc}); recomputing",
                    RuntimeWarning, stacklevel=3)
            with contextlib.suppress(OSError):
                path.unlink()
            return False, None
        self._count(driver, "hits")
        return True, value

    def put(self, driver: str, fingerprint: str, value: Any,
            meta: Optional[Dict[str, Any]] = None) -> Path:
        """Persist one cell atomically (temp file + ``os.replace``).

        Concurrent writers of the same fingerprint write identical
        content (the value is a pure function of the fingerprinted
        inputs), so whichever rename lands last is indistinguishable
        from the first — readers never see a torn file.
        """
        path = self.path_for(driver, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"driver": driver, "fingerprint": fingerprint,
                  "schema": STORE_SCHEMA_VERSION,
                  # repro-lint: allow(determinism) -- header metadata only
                  "created": time.time()}
        if meta:
            header.update(meta)
        tmp = path.parent / (
            f".{fingerprint}.{os.getpid()}.{next(_tmp_counter)}.tmp")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        self._count(driver, "puts")
        return path

    # -- manifest / invalidation ----------------------------------------

    def _artifact_paths(self, driver: Optional[str] = None) -> List[Path]:
        if driver is not None:
            dirs = [self._driver_dir(driver)]
        elif self.root.is_dir():
            dirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        else:
            dirs = []
        out: List[Path] = []
        for d in dirs:
            if d.is_dir():
                out.extend(sorted(d.glob("*.pkl")))
        return out

    def cached_cells(self, driver: Optional[str] = None) -> int:
        """How many cell artifacts are on disk (for one driver or all)."""
        return len(self._artifact_paths(driver))

    def manifest(self) -> List[Dict[str, Any]]:
        """Metadata headers of every artifact, without loading payloads
        (each file's header is its first pickle; unreadable files are
        listed with an ``error`` field rather than skipped silently)."""
        entries: List[Dict[str, Any]] = []
        for path in self._artifact_paths():
            try:
                with open(path, "rb") as fh:
                    header = dict(pickle.load(fh))
            except Exception as exc:
                header = {"error": f"{type(exc).__name__}: {exc}"}
            header["path"] = str(path)
            entries.append(header)
        return entries

    def invalidate(self, driver: str) -> int:
        """Delete exactly the named driver's artifacts; returns count."""
        removed = 0
        for path in self._artifact_paths(driver):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        with contextlib.suppress(OSError):
            self._driver_dir(driver).rmdir()
        return removed


def default_store() -> ArtifactStore:
    """The process-wide store at the env-resolved root (memoized per
    root, so counters accumulate across calls)."""
    root = artifact_dir()
    store = _default_stores.get(root)
    if store is None:
        store = ArtifactStore(root)
        _default_stores[root] = store
    return store


@contextlib.contextmanager
def activate(store: Optional[ArtifactStore] = None) -> Iterator[ArtifactStore]:
    """Make ``store`` (default: the env-resolved one) the active store
    for the duration of the block."""
    global _active_store
    if store is None:
        store = default_store()
    outer = _active_store
    _active_store = store
    try:
        yield store
    finally:
        _active_store = outer


def active_store() -> Optional[ArtifactStore]:
    """The store :func:`~repro.experiments.common.run_cells` consults,
    or ``None`` (compute directly).

    ``REPRO_ARTIFACT_CACHE=0`` beats everything (even an activation);
    ``1`` force-enables the default store with or without one; ``auto``
    (the default) defers to :func:`activate`.
    """
    mode = cache_mode()
    if mode == "0":
        return None
    if _active_store is not None:
        return _active_store
    if mode == "1":
        return default_store()
    return None
