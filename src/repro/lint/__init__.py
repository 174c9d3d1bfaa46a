"""`repro.lint` — AST-based invariant checkers for this repo's contracts.

The repo's correctness story rests on cross-layer invariants that used
to exist only as prose in ``docs/performance.md``: bitwise determinism
of every experiment output, the ``core.flush_accounting()`` flush-hook
contract, the hand-mirrored ``rk_state`` struct between
``rubik_native.c`` and its ctypes ``Structure``, artifact-fingerprint
coverage of every ``DriverConfig`` field, validated warn-once ``REPRO_*``
env gates, and picklable sweep workers. This package enforces them
mechanically:

* ``python -m repro.lint`` — report ``file:line: [rule] message``, exit
  nonzero on findings (``--rules``/``--list-rules`` filter/describe).
* ``tests/lint/test_repo_clean.py`` — tier-1 asserts the tree is clean.

Rules live in :mod:`repro.lint.rules` (one module each, registered via
:func:`repro.lint.base.register`); the catalog with the invariant each
rule guards is ``docs/static_analysis.md``. Intentional violations are
suppressed inline::

    something_nondeterministic()  # repro-lint: allow(determinism) -- why

Suppressions must name the rule and give a reason; suppressions that no
longer match a finding are themselves findings (``unused-suppression``).
"""

from repro.lint.base import Finding, Rule, all_rules, register
from repro.lint.engine import (
    LintResult,
    default_paths,
    lint_files,
    lint_paths,
    lint_sources,
)

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "default_paths",
    "lint_files",
    "lint_paths",
    "lint_sources",
    "register",
]
