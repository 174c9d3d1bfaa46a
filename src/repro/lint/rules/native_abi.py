"""Rule ``native-abi`` — the ctypes ``RKState`` mirror must match the
C ``rk_state`` struct, and every ctypes prototype its C function,
statically.

``rubik_native.c`` and the ctypes ``Structure`` in
``repro/core/_native/kernel.py`` declare the same struct by hand
(docs/performance.md invariant 14). The runtime guard
(``rk_state_size()`` vs ``ctypes.sizeof``) only fires when a compiler
is present and only catches *size* drift — two swapped same-size fields
sail through it and corrupt every decision. This rule re-derives both
field lists from source (no compiler needed) and verifies:

* same field count, names and order, name-for-name;
* 8-byte type agreement per field (``double`` vs ``c_double``,
  ``i64`` vs ``c_int64``, ``double*`` vs ``POINTER(c_double)``,
  ``double[8]`` vs ``c_double * 8`` ...);
* no field of a non-8-byte type on either side (padding would make the
  layouts disagree silently).

The same goes for the entry points: a swapped pair of arguments in a
``lib.rk_*.argtypes`` list passes ctypes and corrupts results silently.
Each ``lib.rk_<name>.argtypes`` / ``.restype`` assignment is paired
with the C definition of ``rk_<name>`` and checked for:

* the argument count;
* pointer versus scalar, per position;
* the scalar type per position, and the return type (``None`` for
  ``void``);
* the pointee, where the ctypes side names one (``c_void_p`` matches
  any pointer);
* a ``restype`` wherever ``argtypes`` is set on a function that
  returns a value (ctypes would read it as a C ``int``).

The other way round, every exported (non-``static``) ``rk_*`` function
must be named by some prototype assignment: an entry point whose
binding was deleted would otherwise linger in the C source unseen.

The rule is project-scoped: it pairs any scanned ``.c`` file containing
a ``rk_state`` typedef with any scanned Python file defining a ctypes
``Structure`` carrying ``_fields_``, and the ``rk_*`` definitions of
every scanned ``.c`` file with the prototype assignments of every
scanned Python file.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint import c_abi
from repro.lint.base import FileContext, Finding, Rule, dotted_name, register

#: ctypes leaf types -> canonical 8-byte spelling.
_CTYPES_LEAVES = {
    "c_double": "double",
    "c_int64": "i64",
    "c_longlong": "i64",
    "c_void_p": "void*",
}

#: The struct name this repo mirrors.
STRUCT_NAME = "rk_state"


def _alias_map(tree: ast.AST) -> Dict[str, str]:
    """Module-level ``_DP = ctypes.POINTER(ctypes.c_double)`` aliases."""
    aliases: Dict[str, str] = {}
    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            canon = _canon_ctype(node.value, aliases)
            if canon is not None:
                aliases[node.targets[0].id] = canon
    return aliases


def _canon_ctype(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical type string for a ctypes type expression, or None."""
    if isinstance(node, ast.Name) and node.id in aliases:
        return aliases[node.id]
    dotted = dotted_name(node)
    if dotted is not None:
        leaf = dotted.split(".")[-1]
        if leaf in _CTYPES_LEAVES:
            return _CTYPES_LEAVES[leaf]
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is not None and callee.split(".")[-1] == "POINTER" \
                and len(node.args) == 1:
            inner = _canon_ctype(node.args[0], aliases)
            if inner is not None:
                return inner + "*"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        inner = _canon_ctype(node.left, aliases)
        if inner is not None and isinstance(node.right, ast.Constant) \
                and isinstance(node.right.value, int):
            return f"{inner}[{node.right.value}]"
    return None


def _find_fields_assign(tree: ast.AST) -> Optional[Tuple[str, ast.Assign]]:
    """(class name, the ``_fields_ = [...]`` assign) of a ctypes mirror."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_fields_"
                    for t in stmt.targets):
                return node.name, stmt
    return None


def _is_8byte(ctype: str) -> bool:
    base = ctype.split("[")[0]
    return base in ("double", "i64", "double*", "i64*")


def _prototype_assigns(tree: ast.AST) -> Iterator[Tuple[str, str, ast.Assign]]:
    """(function name, ``argtypes``/``restype``, the assign) for every
    ``<expr>.rk_<name>.argtypes = ...`` or ``.restype = ...``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if isinstance(target, ast.Attribute) \
                and target.attr in ("argtypes", "restype") \
                and isinstance(target.value, ast.Attribute) \
                and target.value.attr.startswith("rk_"):
            yield target.value.attr, target.attr, node


def _arg_type(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical type of one ctypes prototype entry: ``"void"`` for
    ``None``, ``"pointer"`` for a ``POINTER`` to a type the rule cannot
    name (a ``Structure``), else :func:`_canon_ctype`'s spelling."""
    if isinstance(node, ast.Constant) and node.value is None:
        return "void"
    canon = _canon_ctype(node, aliases)
    if canon is None and isinstance(node, ast.Call) \
            and (dotted_name(node.func) or "").split(".")[-1] == "POINTER":
        return "pointer"
    return canon


def _is_pointer(ctype: str) -> bool:
    return ctype.endswith("*") or ctype == "pointer"


def _type_drift(c_type: str, py_type: str) -> Optional[str]:
    """Why ctypes ``py_type`` cannot pass C ``c_type``, or None."""
    if _is_pointer(c_type) != _is_pointer(py_type):
        kinds = {True: "pointer", False: "scalar"}
        return (f"C takes a {kinds[_is_pointer(c_type)]} ({c_type!r}) but "
                f"ctypes passes a {kinds[_is_pointer(py_type)]} "
                f"({py_type!r})")
    if py_type in ("void*", "pointer") or py_type == c_type:
        return None
    return f"C declares {c_type!r} but ctypes declares {py_type!r}"


def _prototype_drift(ctx: FileContext, kind: str, assign: ast.Assign,
                     fn: c_abi.CFunction) -> Optional[str]:
    """How the ``argtypes`` or ``restype`` ``assign`` in ``ctx`` departs
    from C function ``fn``, or None."""
    aliases = _alias_map(ctx.tree)
    if kind == "restype":
        py_type = _arg_type(assign.value, aliases)
        if py_type is None:
            return "unrecognized ctypes restype"
        drift = _type_drift(fn.restype, py_type)
        return None if drift is None else f"return type drift: {drift}"
    if not isinstance(assign.value, (ast.List, ast.Tuple)):
        return ("argtypes is not a literal list; the prototype cannot be "
                "statically verified")
    entries = assign.value.elts
    if len(entries) != len(fn.params):
        return (f"argument count drift: C takes {len(fn.params)}, "
                f"argtypes lists {len(entries)}")
    drifts = []
    for idx, (c_type, entry) in enumerate(zip(fn.params, entries)):
        py_type = _arg_type(entry, aliases)
        drift = ("unrecognized ctypes type" if py_type is None
                 else _type_drift(c_type, py_type))
        if drift is not None:
            drifts.append(f"#{idx} ({drift})")
    return "argument drift at " + "; ".join(drifts) if drifts else None


@register
class NativeAbiRule(Rule):
    id = "native-abi"
    title = ("ctypes RKState mirror and rk_* prototypes match the C "
             "struct and functions")
    invariant = ("docs/performance.md invariant 14 (struct mirror and "
                 "prototype parity)")
    scope = "project"

    def check_project(self, project) -> Iterator[Finding]:
        yield from self._check_struct(project)
        yield from self._check_prototypes(project)

    def _check_struct(self, project) -> Iterator[Finding]:
        c_ctxs = [f for f in project.files
                  if not f.is_python and STRUCT_NAME in f.source]
        py_ctxs = [f for f in project.files
                   if f.is_python and "_fields_" in f.source
                   and _find_fields_assign(f.tree) is not None]
        if not c_ctxs and not py_ctxs:
            return  # rule not applicable to this file set
        if not c_ctxs:
            yield Finding(
                py_ctxs[0].path, 1, self.id,
                f"found a ctypes Structure mirror but no C source "
                f"declaring '{STRUCT_NAME}' in the scanned tree")
            return
        if not py_ctxs:
            yield Finding(
                c_ctxs[0].path, 1, self.id,
                f"found the C '{STRUCT_NAME}' struct but no ctypes "
                "Structure mirror in the scanned tree")
            return
        yield from self._compare(c_ctxs[0], py_ctxs[0])

    # ------------------------------------------------------------------
    def _parse_c(self, ctx: FileContext):
        try:
            return c_abi.parse_struct(ctx.source, STRUCT_NAME), None
        except c_abi.CParseError as exc:
            return None, Finding(ctx.path, exc.line, self.id, str(exc))

    def _parse_py(self, ctx: FileContext) -> Tuple[
            Optional[List[Tuple[str, str, int]]], List[Finding]]:
        found = _find_fields_assign(ctx.tree)
        assert found is not None
        _cls, assign = found
        if not isinstance(assign.value, (ast.List, ast.Tuple)):
            return None, [Finding(
                ctx.path, assign.lineno, self.id,
                "_fields_ is not a literal list; the mirror cannot be "
                "statically verified")]
        aliases = _alias_map(ctx.tree)
        fields: List[Tuple[str, str, int]] = []
        findings: List[Finding] = []
        for item in assign.value.elts:
            if not (isinstance(item, ast.Tuple) and len(item.elts) == 2
                    and isinstance(item.elts[0], ast.Constant)
                    and isinstance(item.elts[0].value, str)):
                findings.append(Finding(
                    ctx.path, item.lineno, self.id,
                    "_fields_ entry is not a literal ('name', ctype) "
                    "pair; the mirror cannot be statically verified"))
                continue
            name = item.elts[0].value
            canon = _canon_ctype(item.elts[1], aliases)
            if canon is None:
                findings.append(Finding(
                    ctx.path, item.lineno, self.id,
                    f"field {name!r}: unrecognized ctypes type "
                    "expression (extend the native-abi rule if this is "
                    "a new 8-byte type)"))
                canon = "?"
            fields.append((name, canon, item.lineno))
        return fields, findings

    def _compare(self, c_ctx: FileContext,
                 py_ctx: FileContext) -> Iterator[Finding]:
        struct, c_err = self._parse_c(c_ctx)
        if c_err is not None:
            yield c_err
            return
        if struct is None:
            yield Finding(
                c_ctx.path, 1, self.id,
                f"'{STRUCT_NAME}' typedef not found in {c_ctx.path}")
            return
        py_fields, py_findings = self._parse_py(py_ctx)
        yield from py_findings
        if py_fields is None:
            return

        c_fields = struct.fields
        for cf in c_fields:
            if not _is_8byte(cf.ctype):
                yield Finding(
                    c_ctx.path, cf.line, self.id,
                    f"C field {cf.name!r} has non-8-byte type "
                    f"{cf.ctype!r}; padding would desync the mirror")
        for name, canon, line in py_fields:
            if canon != "?" and not _is_8byte(canon):
                yield Finding(
                    py_ctx.path, line, self.id,
                    f"ctypes field {name!r} has non-8-byte type "
                    f"{canon!r}; padding would desync the mirror")

        if len(c_fields) != len(py_fields):
            yield Finding(
                py_ctx.path, py_fields[0][2] if py_fields else 1, self.id,
                f"field count drift: C {STRUCT_NAME} has "
                f"{len(c_fields)} fields, the ctypes mirror has "
                f"{len(py_fields)}")
        for idx, (cf, (pname, ptype, pline)) in enumerate(
                zip(c_fields, py_fields)):
            if cf.name != pname:
                yield Finding(
                    py_ctx.path, pline, self.id,
                    f"field #{idx} name drift: C declares {cf.name!r} "
                    f"({c_ctx.path}:{cf.line}) but the ctypes mirror "
                    f"declares {pname!r}")
            elif ptype != "?" and cf.ctype != ptype:
                yield Finding(
                    py_ctx.path, pline, self.id,
                    f"field {pname!r} type drift: C declares "
                    f"{cf.ctype!r} ({c_ctx.path}:{cf.line}) but the "
                    f"ctypes mirror declares {ptype!r}")

    # ------------------------------------------------------------------
    def _check_prototypes(self, project) -> Iterator[Finding]:
        bindings = [(ctx, name, kind, assign)
                    for ctx in project.files if ctx.is_python
                    and ".rk_" in ctx.source
                    for name, kind, assign in _prototype_assigns(ctx.tree)]
        functions: Dict[str, Tuple[FileContext, c_abi.CFunction]] = {}
        for ctx in project.files:
            if ctx.is_python or "rk_" not in ctx.source:
                continue
            try:
                parsed = c_abi.parse_functions(ctx.source)
            except c_abi.CParseError as exc:
                yield Finding(ctx.path, exc.line, self.id, str(exc))
                continue
            for name, fn in parsed.items():
                functions[name] = (ctx, fn)
        bound = {name for _, name, _, _ in bindings}
        for name, (ctx, fn) in functions.items():
            if name not in bound:
                yield Finding(
                    ctx.path, fn.line, self.id,
                    f"C exports {name} but no ctypes prototype names it; "
                    "bind it or delete it")
        if not bindings:
            return
        if not functions:
            ctx = bindings[0][0]
            yield Finding(
                ctx.path, bindings[0][3].lineno, self.id,
                "found ctypes rk_* prototypes but no C source defining "
                "rk_* functions in the scanned tree")
            return
        restyped = {(ctx.path, name) for ctx, name, kind, _ in bindings
                    if kind == "restype"}
        for ctx, name, kind, assign in bindings:
            if name not in functions:
                yield Finding(
                    ctx.path, assign.lineno, self.id,
                    f"ctypes binds {name}.{kind} but no C source defines "
                    f"{name}")
                continue
            c_ctx, fn = functions[name]
            where = f"{c_ctx.path}:{fn.line}"
            drift = _prototype_drift(ctx, kind, assign, fn)
            if drift is not None:
                yield Finding(ctx.path, assign.lineno, self.id,
                              f"{name} ({where}): {drift}")
            if kind == "argtypes" and fn.restype != "void" \
                    and (ctx.path, name) not in restyped:
                yield Finding(
                    ctx.path, assign.lineno, self.id,
                    f"{name} ({where}) returns {fn.restype!r} but ctypes "
                    "sets no restype, so the result is read as a C int")
