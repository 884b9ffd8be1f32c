"""Collective counting: the measurement behind the paper's Table 3.

Counts collectives in a device-local function.  ``all_slice`` is *not*
counted: like the paper's tables, only communicating collectives matter
(slicing is device-local).  Collectives inside a ``scan`` body count once per
iteration, matching how the paper reports IT32's serving loop.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import canonical_attr

COUNTED = ("all_gather", "all_reduce", "reduce_scatter", "all_to_all")
# all_slice is device-local, but its placement pins the lowering, so the
# sequence view (used by the incremental-equivalence tests) includes it.
SEQUENCED = COUNTED + ("all_slice",)


@dataclasses.dataclass
class CollectiveCounts:
    all_gather: int = 0
    all_reduce: int = 0
    reduce_scatter: int = 0
    all_to_all: int = 0

    @property
    def total(self) -> int:
        return (self.all_gather + self.all_reduce + self.reduce_scatter
                + self.all_to_all)

    def as_dict(self) -> Dict[str, int]:
        return {
            "AG": self.all_gather,
            "AR": self.all_reduce,
            "RS": self.reduce_scatter,
            "A2A": self.all_to_all,
        }

    def __repr__(self) -> str:
        d = self.as_dict()
        return "Counts(" + ", ".join(f"{k}={v}" for k, v in d.items()) + ")"


def collective_sequence(function: Function) -> List[Tuple[str, tuple]]:
    """The ordered (opcode, canonicalized attrs) sequence of collective and
    slice ops, regions included — a structural fingerprint of the lowering
    that ignores SSA value identities.  Two lowerings with equal sequences
    emit the same communication in the same order."""
    return [
        (op.opcode, canonical_attr(op.attrs))
        for op in function.walk()
        if op.opcode in SEQUENCED
    ]


def count_collectives(function: Function, multiplier: int = 1,
                      static: bool = False) -> CollectiveCounts:
    """Count collectives; ``static=True`` ignores scan trip counts (counts op
    instances in the IR instead of dynamic executions)."""
    counts = CollectiveCounts()
    for op in function.ops:
        if op.opcode in COUNTED:
            field = op.opcode
            setattr(counts, field, getattr(counts, field) + multiplier)
        if op.opcode in opdefs.LOOP_OPS:
            inner_multiplier = multiplier * (
                1 if static else op.attrs["trip_count"]
            )
            # Every region runs once per iteration (a while_loop's cond
            # region included), so each counts at the inner multiplier.
            for region in op.regions:
                inner = count_collectives(region, inner_multiplier, static)
                counts.all_gather += inner.all_gather
                counts.all_reduce += inner.all_reduce
                counts.reduce_scatter += inner.reduce_scatter
                counts.all_to_all += inner.all_to_all
    return counts
