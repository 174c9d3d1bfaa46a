"""Lightweight C-source parser for the native library's ABI cross-check.

Just enough C to read what this repo ships:

* the one struct, a ``typedef struct { ... } <name>;`` whose members are
  scalar, pointer or fixed-array declarations of 8-byte base types
  (``double``, ``i64`` / ``int64_t``);
* the exported ``rk_*`` entry points: non-``static`` function
  definitions that start at column 0, with their return and parameter
  types.

No compiler, no preprocessor — comments are stripped statefully
line-by-line so every parsed field or function keeps its source line
for findings.

Canonical type strings (shared with the ctypes side of the
``native-abi`` rule): ``"double"``, ``"i64"``, ``"double*"``,
``"i64*"``, ``"double[8]"`` ...; parameters add ``"u8"`` for
``uint8_t``, ``"void"``, and any other base spelled as written
(``"rk_state*"``).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Tuple

#: 8-byte base types and their canonical spelling.
_BASE_TYPES = {"double": "double", "i64": "i64", "int64_t": "i64"}

#: Canonical spelling of function parameter and return base types.
_PARAM_TYPES = {**_BASE_TYPES, "uint8_t": "u8"}

_FUNC_RE = re.compile(
    r"^(?!static\b)(?P<ret>[A-Za-z_][\w \t*]*?)\s*\b(?P<name>rk_\w+)"
    r"\s*\((?P<params>[^)]*)\)\s*\{", re.MULTILINE)

_PARAM_RE = re.compile(
    r"^\s*(?P<base>[A-Za-z_]\w*)\s*(?P<ptr>(?:\*\s*)*)"
    r"(?:[A-Za-z_]\w*)?\s*$")

_DECL_RE = re.compile(
    r"^\s*(?P<base>[A-Za-z_]\w*)\s*"
    r"(?P<ptr>\*?)\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:\[(?P<arr>\d+)\])?\s*$")


@dataclasses.dataclass(frozen=True)
class CField:
    """One struct member: name, canonical type, source line."""

    name: str
    ctype: str
    line: int


@dataclasses.dataclass(frozen=True)
class CStruct:
    name: str
    fields: Tuple[CField, ...]
    line: int


@dataclasses.dataclass(frozen=True)
class CFunction:
    """One exported function: name, canonical return and parameter
    types, source line of the definition."""

    name: str
    restype: str
    params: Tuple[str, ...]
    line: int


class CParseError(ValueError):
    """Raised with a (message, line) payload on unparseable input."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(message)
        self.line = line


def strip_comments(source: str) -> List[str]:
    """Source lines with ``/* */`` and ``//`` comments blanked.

    Line count and per-line offsets of surviving code are preserved, so
    downstream line numbers match the original file.
    """
    out: List[str] = []
    in_block = False
    for line in source.splitlines():
        buf: List[str] = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    buf.append(" " * (len(line) - i))
                    i = len(line)
                else:
                    buf.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
            elif line.startswith("/*", i):
                in_block = True
            elif line.startswith("//", i):
                buf.append(" " * (len(line) - i))
                i = len(line)
            else:
                buf.append(line[i])
                i += 1
        out.append("".join(buf))
    return out


def parse_struct(source: str, name: str = "rk_state") -> Optional[CStruct]:
    """Parse ``typedef struct { ... } <name>;`` out of ``source``.

    Returns None when no such typedef exists; raises :class:`CParseError`
    on members the 8-byte grammar cannot express (that is a finding for
    the caller — an unparseable field can hide an ABI drift).
    """
    lines = strip_comments(source)
    end_re = re.compile(r"^\s*\}\s*" + re.escape(name) + r"\s*;")
    start = end = None
    for idx, line in enumerate(lines):
        if end_re.match(line):
            end = idx
            break
    if end is None:
        return None
    for idx in range(end - 1, -1, -1):
        if re.search(r"typedef\s+struct\s*\{", lines[idx]):
            start = idx
            break
    if start is None:
        raise CParseError(
            f"found '}} {name};' but no 'typedef struct {{' opener",
            end + 1)

    fields: List[CField] = []
    pending = ""
    pending_line = start + 2
    for idx in range(start + 1, end):
        text = lines[idx]
        if not pending.strip():
            pending_line = idx + 1
        pending += " " + text
        while ";" in pending:
            decl, pending = pending.split(";", 1)
            if not decl.strip():
                continue
            m = _DECL_RE.match(decl.strip())
            if not m:
                raise CParseError(
                    f"cannot parse struct member {decl.strip()!r}",
                    pending_line)
            base = _BASE_TYPES.get(m.group("base"))
            if base is None:
                raise CParseError(
                    f"struct member {m.group('name')!r} has non-8-byte "
                    f"(or unknown) base type {m.group('base')!r}",
                    pending_line)
            ctype = base + ("*" if m.group("ptr") else "")
            if m.group("arr") is not None:
                if m.group("ptr"):
                    raise CParseError(
                        f"array-of-pointer member {m.group('name')!r} "
                        "is not part of the 8-byte ABI grammar",
                        pending_line)
                ctype = f"{base}[{int(m.group('arr'))}]"
            fields.append(CField(m.group("name"), ctype, pending_line))
            if pending.strip():
                # More declarations on the same physical region.
                pass
        if pending.strip():
            continue
    if pending.strip():
        raise CParseError(
            f"unterminated struct member {pending.strip()!r}", pending_line)
    return CStruct(name=name, fields=tuple(fields), line=start + 1)


def _canon_param(decl: str, line: int) -> str:
    """Canonical type of one parameter (or return type) declaration."""
    m = _PARAM_RE.match(re.sub(r"\b(?:const|restrict)\b", " ", decl))
    if not m:
        raise CParseError(f"cannot parse declaration {decl.strip()!r}",
                          line)
    base = _PARAM_TYPES.get(m.group("base"), m.group("base"))
    return base + "*" * m.group("ptr").count("*")


def parse_functions(source: str) -> Dict[str, CFunction]:
    """The exported ``rk_*`` function definitions in ``source``, by name.

    Raises :class:`CParseError` on a parameter the grammar cannot read
    (an unreadable argument could hide a binding drift).
    """
    text = "\n".join(strip_comments(source))
    functions: Dict[str, CFunction] = {}
    for m in _FUNC_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        params = m.group("params").strip()
        decls = [] if params in ("", "void") else params.split(",")
        functions[m.group("name")] = CFunction(
            name=m.group("name"),
            restype=_canon_param(m.group("ret"), line),
            params=tuple(_canon_param(d, line) for d in decls),
            line=line)
    return functions
