"""native-abi rule: the C parser and compiler-free drift detection.

The acceptance property: mutating a *copy* of the real sources — two
rk_state mirror fields reordered, or one field's type changed — makes
the rule fire, with no C compiler involved anywhere.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_sources
from repro.lint.c_abi import CParseError, parse_struct, strip_comments

KERNEL_PY = Path(__file__).resolve().parents[2] \
    / "src/repro/core/_native/kernel.py"
NATIVE_C = Path(__file__).resolve().parents[2] \
    / "src/repro/core/_native/rubik_native.c"


def abi_findings(sources):
    res = lint_sources(sources, rules=["native-abi"])
    return [f for f in res.findings if f.rule == "native-abi"]


MINI_C = textwrap.dedent("""\
    /* minimal mirror fixture */
    typedef struct {
        double now;
        i64 decisions;
        double *grid;
        double unacct[8];
    } rk_state;
    """)

MINI_PY = textwrap.dedent("""\
    import ctypes

    _DP = ctypes.POINTER(ctypes.c_double)

    class RKState(ctypes.Structure):
        _fields_ = [
            ("now", ctypes.c_double),
            ("decisions", ctypes.c_int64),
            ("grid", _DP),
            ("unacct", ctypes.c_double * 8),
        ]
    """)


class TestCParser:

    def test_parses_fields_in_order(self):
        struct = parse_struct(MINI_C)
        assert [(f.name, f.ctype) for f in struct.fields] == [
            ("now", "double"), ("decisions", "i64"),
            ("grid", "double*"), ("unacct", "double[8]")]

    def test_strip_comments_preserves_offsets(self):
        src = "int a; /* gone */ int b;\n// line\nint c;\n"
        stripped = strip_comments(src)
        originals = src.splitlines()
        assert len(stripped) == len(originals)
        assert [len(s) for s in stripped] == [len(o) for o in originals]
        assert "gone" not in "".join(stripped)
        assert stripped[2] == "int c;"
        # code after a block comment survives at its original column
        assert stripped[0].index("int b;") == originals[0].index("int b;")

    def test_commented_out_field_ignored(self):
        src = MINI_C.replace("i64 decisions;",
                             "i64 decisions;\n    /* double old; */")
        names = [f.name for f in parse_struct(src).fields]
        assert "old" not in names and "decisions" in names

    def test_unknown_member_type_raises(self):
        bad = MINI_C.replace("i64 decisions;", "int decisions;")
        with pytest.raises(CParseError, match="decisions"):
            parse_struct(bad)

    def test_missing_struct_returns_none(self):
        assert parse_struct("int main(void) { return 0; }\n") is None


class TestMirrorComparison:

    def test_matching_fixture_clean(self):
        assert not abi_findings({"k.py": MINI_PY, "n.c": MINI_C})

    def test_name_drift(self):
        drifted = MINI_PY.replace('"decisions"', '"decision_count"')
        found = abi_findings({"k.py": drifted, "n.c": MINI_C})
        assert any("name drift" in f.message for f in found)

    def test_type_drift(self):
        drifted = MINI_PY.replace('("grid", _DP)',
                                  '("grid", ctypes.POINTER(ctypes.c_int64))')
        found = abi_findings({"k.py": drifted, "n.c": MINI_C})
        assert any("type drift" in f.message and "'grid'" in f.message
                   for f in found)

    def test_count_drift(self):
        drifted = MINI_PY.replace(
            '("unacct", ctypes.c_double * 8),\n', "")
        found = abi_findings({"k.py": drifted, "n.c": MINI_C})
        assert any("count drift" in f.message for f in found)

    def test_array_length_drift(self):
        drifted = MINI_PY.replace("ctypes.c_double * 8",
                                  "ctypes.c_double * 4")
        found = abi_findings({"k.py": drifted, "n.c": MINI_C})
        assert any("'unacct'" in f.message for f in found)

    def test_missing_c_side_reported(self):
        found = abi_findings({"k.py": MINI_PY})
        assert found and "no C source" in found[0].message

    def test_missing_py_side_reported(self):
        found = abi_findings({"n.c": MINI_C})
        assert found and "no ctypes" in found[0].message


class TestRealSources:
    """Drift detection against copies of the actual repo sources —
    the no-compiler guarantee the runtime size guard cannot give."""

    @pytest.fixture()
    def real(self):
        return {"kernel.py": KERNEL_PY.read_text(),
                "rubik_native.c": NATIVE_C.read_text()}

    def test_real_pair_is_clean(self, real):
        assert not abi_findings(real)

    def test_swapping_two_mirror_fields_fires(self, real):
        lines = real["kernel.py"].splitlines(keepends=True)
        adjacent = [i for i in range(len(lines) - 1)
                    if '", ctypes.c_double)' in lines[i]
                    and '", ctypes.c_double)' in lines[i + 1]]
        assert adjacent, "fixture rot: no adjacent c_double pair"
        i = adjacent[0]
        swapped = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
        found = abi_findings({"kernel.py": "".join(swapped),
                              "rubik_native.c": real["rubik_native.c"]})
        # both positions drift: the swap cannot be shadowed
        assert sum("name drift" in f.message for f in found) == 2

    def test_type_mutation_in_c_copy_fires(self, real):
        m = re.search(r"^(\s*)double (\w+);", real["rubik_native.c"],
                      re.MULTILINE)
        assert m, "fixture rot: no plain double field in rk_state"
        mutated = real["rubik_native.c"].replace(
            m.group(0), f"{m.group(1)}i64 {m.group(2)};", 1)
        found = abi_findings({"kernel.py": real["kernel.py"],
                              "rubik_native.c": mutated})
        assert any("type drift" in f.message and m.group(2) in f.message
                   for f in found)


MINI_PROTO_C = textwrap.dedent("""\
    static i64 rk_helper(double x) { return 0; }
    i64 rk_walk(i64 n, const double *arr, uint8_t *mask, double bound,
                rk_ctx *s) { return 0; }
    void rk_reset(void) { }
    """)

MINI_PROTO_PY = textwrap.dedent("""\
    import ctypes

    _VP = ctypes.c_void_p

    def bind(lib, State):
        lib.rk_walk.argtypes = [ctypes.c_int64, _VP,
                                ctypes.POINTER(ctypes.c_uint8),
                                ctypes.c_double, ctypes.POINTER(State)]
        lib.rk_walk.restype = ctypes.c_int64
        lib.rk_reset.restype = None
    """)


class TestPrototypes:
    """The ``lib.rk_*.argtypes`` / ``restype`` assignments against the C
    definitions: a snippet and copies of the real sources."""

    def test_matching_snippet_is_silent(self):
        assert not abi_findings({"k.py": MINI_PROTO_PY,
                                 "n.c": MINI_PROTO_C})

    def test_snippet_pointee_drift_fires(self):
        drifted = MINI_PROTO_PY.replace(
            "ctypes.POINTER(ctypes.c_uint8)",
            "ctypes.POINTER(ctypes.c_double)")
        found = abi_findings({"k.py": drifted, "n.c": MINI_PROTO_C})
        assert len(found) == 1
        assert "#2 (C declares 'u8*'" in found[0].message

    def test_bindings_without_c_source_reported(self):
        found = abi_findings({"k.py": MINI_PROTO_PY})
        assert len(found) == 1 and "no C source" in found[0].message

    def test_snippet_unbound_export_fires(self):
        orphaned = MINI_PROTO_C + "i64 rk_orphan(double x) { return 1; }\n"
        found = abi_findings({"k.py": MINI_PROTO_PY, "n.c": orphaned})
        assert len(found) == 1
        assert found[0].path == "n.c" and found[0].line == 5
        assert "C exports rk_orphan but no ctypes prototype" \
            in found[0].message

    def test_snippet_static_and_restype_only_are_silent(self):
        """A static helper is not an export, and a restype-only
        assignment binds its function."""
        extra = MINI_PROTO_C + "static void rk_inner(void) { }\n"
        assert not abi_findings({"k.py": MINI_PROTO_PY, "n.c": extra})

    def test_exports_without_bindings_reported(self):
        found = abi_findings({"n.c": MINI_PROTO_C})
        assert sorted(f.message.split()[2] for f in found) == [
            "rk_reset", "rk_walk"]

    @pytest.fixture()
    def real(self):
        return {"kernel.py": KERNEL_PY.read_text(),
                "rubik_native.c": NATIVE_C.read_text()}

    @staticmethod
    def _argtypes(source: str, name: str) -> re.Match:
        m = re.search(rf"lib\.{name}\.argtypes = \[(?P<args>[^\]]*)\]",
                      source)
        assert m, f"fixture rot: no argtypes list for {name}"
        return m

    def _mutate(self, real, name, edit):
        m = self._argtypes(real["kernel.py"], name)
        args = [a.strip() for a in m.group("args").split(",")]
        edit(args)
        mutated = (real["kernel.py"][:m.start("args")] + ", ".join(args)
                   + real["kernel.py"][m.end("args"):])
        return abi_findings({"kernel.py": mutated,
                             "rubik_native.c": real["rubik_native.c"]})

    def test_parses_the_oracle_entry_points(self, real):
        from repro.lint.c_abi import parse_functions

        fns = parse_functions(real["rubik_native.c"])
        assert fns["rk_lindley"].params == (
            "i64", "double*", "double*", "double*", "u8*", "double",
            "double*", "double*", "double*")
        assert fns["rk_lindley"].restype == "i64"
        assert fns["rk_span"].params == ("rk_state*",)
        assert "rk_bisect_left" not in fns  # static: not exported

    def test_parses_the_percentile_entry_point(self, real):
        from repro.lint.c_abi import parse_functions

        fn = parse_functions(real["rubik_native.c"])["rk_percentile"]
        assert fn.params == ("i64", "double*", "double", "double*")
        assert fn.restype == "double"
        assert not self._mutate(real, "rk_percentile", lambda args: None)

    def test_parses_the_chip_entry_point(self, real):
        """The chip loop takes its state as plain arguments (no second
        struct to mirror): a pointer to the cores' ``rk_state``
        pointers, then scalars and typed pointers the rule checks."""
        from repro.lint.c_abi import parse_functions

        fn = parse_functions(real["rubik_native.c"])["rk_chip"]
        assert fn.params == (
            "i64", "rk_state**", "double", "double", "i64", "double*",
            "i64*", "i64*", "i64*", "double*", "double*", "i64*")
        assert fn.restype == "i64"
        assert not self._mutate(real, "rk_chip", lambda args: None)

    def test_chip_table_and_mask_swap_fires(self, real):
        def swap(args):
            # rk_chip(..., table, known, ...): the double and i64 arrays
            args[5], args[6] = args[6], args[5]

        found = self._mutate(real, "rk_chip", swap)
        assert len(found) == 1
        assert "#5 (C declares 'double*'" in found[0].message

    def test_percentile_argument_swap_fires(self, real):
        def swap(args):
            # rk_percentile(n, values, pct, scratch): the pct and a pointer
            args[1], args[2] = args[2], args[1]

        found = self._mutate(real, "rk_percentile", swap)
        assert len(found) == 1 and "argument drift" in found[0].message

    def test_swapping_a_scalar_and_a_pointer_fires_once(self, real):
        def swap(args):
            # rk_lindley(n, arrival, ...): the count and the first pointer
            args[0], args[1] = args[1], args[0]

        found = self._mutate(real, "rk_lindley", swap)
        assert len(found) == 1
        assert "argument drift at #0 (C takes a scalar" in found[0].message
        assert "#1 (C takes a pointer" in found[0].message

    def test_swapping_two_scalars_of_different_types_fires_once(self, real):
        def swap(args):
            # rk_dyn_round(..., norder, bound, budget, ...): i64, double
            args[6], args[7] = args[7], args[6]

        found = self._mutate(real, "rk_dyn_round", swap)
        assert len(found) == 1
        assert "#6 (C declares 'i64'" in found[0].message

    def test_dropping_an_argument_fires_once(self, real):
        found = self._mutate(real, "rk_dyn_round", lambda args: args.pop())
        assert len(found) == 1
        assert "argument count drift: C takes 16, argtypes lists 15" \
            in found[0].message

    def test_restype_drift_fires(self, real):
        mutated = real["kernel.py"].replace(
            "lib.rk_lindley.restype = ctypes.c_int64",
            "lib.rk_lindley.restype = ctypes.c_double")
        found = abi_findings({"kernel.py": mutated,
                              "rubik_native.c": real["rubik_native.c"]})
        assert len(found) == 1 and "return type drift" in found[0].message

    def test_missing_restype_fires(self, real):
        mutated = re.sub(r"\n *lib\.rk_lindley\.restype = [^\n]*", "",
                         real["kernel.py"])
        found = abi_findings({"kernel.py": mutated,
                              "rubik_native.c": real["rubik_native.c"]})
        assert len(found) == 1 and "no restype" in found[0].message

    def test_binding_without_c_function_fires(self, real):
        mutated = real["kernel.py"].replace("lib.rk_lindley.",
                                            "lib.rk_lindley2.")
        found = abi_findings({"kernel.py": mutated,
                              "rubik_native.c": real["rubik_native.c"]})
        renamed = [f for f in found if "rk_lindley2" in f.message]
        assert renamed and all("no C source defines rk_lindley2"
                               in f.message for f in renamed)
        # ...and the C function the rename left unbound.
        rest = [f.message for f in found if f not in renamed]
        assert len(rest) == 1 and "C exports rk_lindley but" in rest[0]

    def test_deleted_binding_leaves_an_unbound_export(self, real):
        mutated = re.sub(r"\n *lib\.rk_percentile\.[^\n]*(\n +[^\n]*\])?",
                         "", real["kernel.py"])
        assert "rk_percentile" not in mutated
        found = abi_findings({"kernel.py": mutated,
                              "rubik_native.c": real["rubik_native.c"]})
        assert len(found) == 1
        assert found[0].path == "rubik_native.c"
        assert "C exports rk_percentile but" in found[0].message
