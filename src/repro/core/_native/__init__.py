"""Native (C, ctypes) fast path for the Rubik decision/event kernel.

Perf layer 7 (docs/performance.md): ``rubik_native.c`` holds the Eq. 2
decision fold and the whole-run event loop; :mod:`.build` compiles and
loads it on first use (gated by ``REPRO_NATIVE``); :mod:`.kernel` is
the ctypes binding (the state mirror and the entry points'
prototypes); :mod:`.session` drives whole runs through the C loop, the
only way Rubik runs in C.

Importing this package never builds or loads anything — the build is
triggered lazily by :func:`available` / :func:`load_library`, and every
failure degrades to the Python kernel with a warn-once notice.
"""

from repro.core._native.build import (
    NATIVE_ENV,
    _reset_for_tests,
    available,
    build_info,
    env_mode,
    load_library,
)

__all__ = [
    "NATIVE_ENV",
    "available",
    "build_info",
    "env_mode",
    "load_library",
    "_reset_for_tests",
]
