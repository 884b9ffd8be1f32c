"""Textual printer for modules, in an MLIR-flavoured syntax.

The printer is for humans (debugging, the paper's listings); there is no
parser — modules are built programmatically or by tracing.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ir.function import Function
from repro.ir.values import Operation, Value


class _Namer:
    def __init__(self):
        self._names: Dict[Value, str] = {}
        self._next = 0

    def name(self, value: Value) -> str:
        if value not in self._names:
            if value.name:
                base = value.name
                candidate = base
                suffix = 0
                while candidate in self._names.values():
                    suffix += 1
                    candidate = f"{base}_{suffix}"
                self._names[value] = candidate
            else:
                self._names[value] = f"{self._next}"
                self._next += 1
        return self._names[value]


def _format_attr(key, value) -> str:
    if isinstance(value, np.ndarray):
        if value.size <= 4:
            return f"{key}=dense<{value.tolist()}>"
        return f"{key}=dense<...x{value.dtype}>"
    return f"{key}={value}"


def print_function(function: Function, indent: str = "") -> str:
    namer = _Namer()
    lines = []
    params = ", ".join(
        f"%{namer.name(p)}: {p.type}" for p in function.params
    )
    lines.append(f"{indent}func @{function.name}({params}) {{")
    body_indent = indent + "  "
    for op in function.ops:
        lines.append(_print_op(op, namer, body_indent))
    results = ", ".join(f"%{namer.name(r)}" for r in function.results)
    types = ", ".join(str(r.type) for r in function.results)
    lines.append(f"{body_indent}return {results} : {types}")
    lines.append(f"{indent}}}")
    return "\n".join(lines)


def _print_op(op: Operation, namer: _Namer, indent: str) -> str:
    outs = ", ".join(f"%{namer.name(r)}" for r in op.results)
    ins = ", ".join(f"%{namer.name(o)}" for o in op.operands)
    attrs = ", ".join(
        _format_attr(k, v) for k, v in sorted(op.attrs.items())
    )
    attr_str = f" {{{attrs}}}" if attrs else ""
    types = ", ".join(str(r.type) for r in op.results)
    line = f"{indent}{outs} = {op.opcode}({ins}){attr_str} : {types}"
    if op.regions:
        region_lines = [line + " {"]
        for region in op.regions:
            region_lines.append(print_function(region, indent + "  "))
        region_lines.append(indent + "}")
        return "\n".join(region_lines)
    return line
