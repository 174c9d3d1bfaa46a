"""Setup shim for environments without the `wheel` package.

Enables `pip install -e . --no-build-isolation` (legacy editable install)
on machines where PEP 517 editable builds are unavailable offline.

Also offers the native Rubik kernel as an *optional* install-time build:
the shared library is compiled with the system C compiler (and linked
with libm, through the same ``build.ensure_built`` command the runtime
uses) when one is available, and skipped silently otherwise — the package is pure-Python
plus an optional accelerator, never a required extension (runtime falls
back to build-on-first-use, and failing that to the Python kernel).

Installs the ``repro-lint`` console script — the invariant checker suite
(``python -m repro.lint``) as a first-class command.
"""
from setuptools import find_packages, setup
from setuptools.command.build_py import build_py


class _BuildWithNative(build_py):
    """Best-effort native-kernel build during install (never fatal)."""

    def run(self):
        super().run()
        try:
            import sys
            sys.path.insert(0, "src")
            from repro.core._native import build as native_build
            native_build.ensure_built()
        except Exception as exc:  # noqa: BLE001 — optional accelerator
            print(f"note: native Rubik kernel not prebuilt ({exc}); "
                  "it will be built on first use or fall back to Python")


setup(
    name="rubik-repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.core._native": ["*.c"]},
    entry_points={
        "console_scripts": ["repro-lint=repro.lint.__main__:main"],
    },
    cmdclass={"build_py": _BuildWithNative},
)
