"""Build-on-first-use loader for the native Rubik kernel.

The C source (``rubik_native.c``) is compiled into a plain shared
library the first time the native path is asked for, cached next to the
source keyed by a digest of the source and the compile flags (a source
or flag edit is a cache miss, never a stale load), and loaded through
:func:`ctypes.CDLL` — no Python headers or build isolation needed, just
a C compiler on ``PATH``.  ``setup.py``
exposes the same build as an optional install-time step.

Dispatch is gated by the ``REPRO_NATIVE`` environment variable:

* ``"1"`` — require the native kernel (build/load failures still fall
  back to the Python kernel, with the warn-once notice).
* ``"0"`` — never use it (the pure-Python fallback, exercised in CI).
* ``"auto"`` / unset — use it when it builds and loads (the default).

Anything else warns once per distinct value (mirroring the
``REPRO_MAX_WORKERS`` idiom in :mod:`repro.resilience.execution`) and is
treated as unset.  A failed build or load likewise warns once and the
controller silently dispatches to the Python kernel — a box without
``cc`` must never fail collection, equivalence tests, or experiments.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, Optional, Set

from repro import config
from repro.resilience import faults

#: Environment toggle for the native decision/event kernel.
NATIVE_ENV = "REPRO_NATIVE"

_SOURCE = Path(__file__).resolve().parent / "rubik_native.c"

#: Flags chosen for bitwise float reproducibility: baseline ISA (no
#: -march=native) and -ffp-contract=off forbid fused multiply-adds, so
#: every double op rounds exactly like the CPython float op.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Libraries linked after the source: libm for the interference
#: penalty's ``exp``, the function ``math.exp`` calls.
_LIBS = ("-lm",)

#: ``rk_abi_version()`` of the source this loader and the ctypes mirror
#: (``kernel.RKState``) are written for.
ABI_VERSION = 7

_COMPILERS = ("cc", "gcc", "clang")

#: Invalid REPRO_NATIVE values already warned about (warn once each).
_warned_env_values: Set[str] = set()

#: Build/load memo: ``None`` means "not attempted yet".
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None
_warned_load_failure = False
_build_seconds: Optional[float] = None
_compiler_used: Optional[str] = None
_lib_path: Optional[str] = None


def env_mode() -> str:
    """The validated ``REPRO_NATIVE`` mode: ``"1"``, ``"0"`` or ``"auto"``.

    Invalid values warn once per distinct raw value (registry owned
    here, reset by ``_reset_for_tests``) and read as unset (``"auto"``),
    via the shared gate helper in :mod:`repro.config`.
    """
    return config.env_tristate(NATIVE_ENV, _warned_env_values)


def _source_tag() -> str:
    """Digest of everything that shapes the built library: the source
    and the compile command's flags and libraries."""
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS + _LIBS).encode())
    return digest.hexdigest()[:16]


def _cached_paths() -> list:
    """Candidate .so locations, preferred first (package dir may be
    read-only in installed environments; fall back to a per-user temp
    cache)."""
    name = f"_rubik_native-{_source_tag()}.so"
    paths = [_SOURCE.parent / name]
    tmp = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    paths.append(tmp / name)
    return paths


def _compile(out_path: Path) -> str:
    """Compile the C source to ``out_path``; returns the compiler used."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp_out = out_path.with_suffix(f".tmp{os.getpid()}.so")
    last_error: Optional[str] = None
    for compiler in _COMPILERS:
        cmd = [compiler, *_CFLAGS, "-o", str(tmp_out), str(_SOURCE),
               *_LIBS]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            last_error = f"{compiler}: {exc}"
            continue
        if proc.returncode == 0:
            os.replace(tmp_out, out_path)
            return compiler
        last_error = f"{compiler}: {proc.stderr.strip() or proc.stdout.strip()}"
    tmp_out.unlink(missing_ok=True)
    raise RuntimeError(last_error or "no C compiler found")


def ensure_built() -> Path:
    """Compile (if needed) and return the shared-library path.

    Raises on failure — callers wanting the graceful path use
    :func:`load_library` / :func:`available` instead.
    """
    candidates = _cached_paths()
    for path in candidates:
        if path.is_file():
            return path
    errors = []
    for path in candidates:
        try:
            compiler = _compile(path)
        except (OSError, RuntimeError) as exc:
            errors.append(str(exc))
            continue
        global _compiler_used
        _compiler_used = compiler
        return path
    raise RuntimeError(
        "could not build the native kernel: " + "; ".join(errors))


def load_library() -> Optional[ctypes.CDLL]:
    """The loaded native library, or None (after a warn-once notice)
    when it cannot be built/loaded or ``REPRO_NATIVE=0`` disables it.

    The build/load attempt runs at most once per process; the env gate
    is re-read per call so tests can flip it.
    """
    if env_mode() == "0":
        return None
    global _lib, _load_attempted, _load_error, _warned_load_failure
    global _build_seconds, _lib_path
    if _load_attempted:
        return _lib
    _load_attempted = True
    # repro-lint: allow(determinism) -- build-time diagnostic only
    t0 = time.perf_counter()
    try:
        # Injected load failure (InjectedFault is a RuntimeError, so it
        # rides the existing warn-once fallback to the Python kernel).
        faults.maybe_inject("native.load_fail")
        path = ensure_built()
        lib = ctypes.CDLL(str(path))
        # Sanity-check the ABI before trusting the struct mirror.
        lib.rk_state_size.restype = ctypes.c_int64
        lib.rk_abi_version.restype = ctypes.c_int64
        if lib.rk_abi_version() != ABI_VERSION:
            raise RuntimeError(f"native kernel ABI {lib.rk_abi_version()}"
                               f" != {ABI_VERSION}")
        _lib = lib
        _lib_path = str(path)
    except (OSError, RuntimeError, AttributeError) as exc:
        _lib = None
        _load_error = str(exc)
        if not _warned_load_failure:
            _warned_load_failure = True
            warnings.warn(
                "native Rubik kernel unavailable "
                f"({_load_error}); falling back to the Python kernel",
                RuntimeWarning, stacklevel=3)
    finally:
        # repro-lint: allow(determinism) -- build-time diagnostic only
        _build_seconds = time.perf_counter() - t0
    return _lib


def available() -> bool:
    """True when the native path is enabled and the library loads."""
    return load_library() is not None


def build_info() -> Dict[str, object]:
    """Build/fallback status for benchmarks and diagnostics."""
    return {
        "env_mode": env_mode(),
        "attempted": _load_attempted,
        "loaded": _lib is not None,
        "path": _lib_path,
        "compiler": _compiler_used,
        "build_seconds": _build_seconds,
        "error": _load_error,
    }


def _reset_for_tests() -> None:
    """Forget the build/load memo (and warn-once state) so tests can
    exercise the failure and env-gate paths."""
    global _lib, _load_attempted, _load_error, _warned_load_failure
    global _build_seconds, _compiler_used, _lib_path
    _lib = None
    _load_attempted = False
    _load_error = None
    _warned_load_failure = False
    _build_seconds = None
    _compiler_used = None
    _lib_path = None
    _warned_env_values.clear()
