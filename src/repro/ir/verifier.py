"""IR verifier: structural SSA checks plus re-running type inference.

Passes call this after rewriting to catch bugs early, mirroring MLIR's
per-dialect verification that the paper leans on for compartmentalised
testing.
"""

from __future__ import annotations

from typing import Set

from repro.errors import VerificationError
from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import Value


def verify_function(function: Function) -> None:
    defined: Set[Value] = set(function.params)
    for op in function.ops:
        for operand in op.operands:
            if operand not in defined:
                raise VerificationError(
                    f"in @{function.name}: op {op.opcode} uses value "
                    f"{operand!r} before definition"
                )
        if not opdefs.is_registered(op.opcode):
            raise VerificationError(f"unknown opcode {op.opcode}")
        opdef = opdefs.get(op.opcode)
        expected = opdef.infer([v.type for v in op.operands], op.attrs, op.regions)
        actual = [r.type for r in op.results]
        if list(expected) != actual:
            raise VerificationError(
                f"in @{function.name}: op {op.opcode} result types {actual} "
                f"disagree with inference {expected}"
            )
        for region in op.regions:
            verify_function(region)
        defined.update(op.results)
    for result in function.results:
        if result not in defined:
            raise VerificationError(
                f"@{function.name} returns undefined value {result!r}"
            )
