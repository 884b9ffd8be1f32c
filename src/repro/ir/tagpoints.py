"""First-class *tag points*: addressable interior program points.

A ``tag`` op is a named identity marker (registered in
:mod:`repro.ir.ops_elementwise`): it evaluates to its operand in the
interpreter, carries a zero-FLOP cost, aliases its operand in the
live-range analysis, and is dropped from device-local code at lowering
whenever its operand and result agree on a sharding.  Tags exist purely to
give *interior* values stable, structural names — the paper's Section 8
model-internal annotations, and (since the tracer auto-emits them at
matmul/scan/reduce outputs) the decision variables of the widened
automatic-partitioning action space: treating interior program points as
first-class decision variables is exactly the CFG constraint-search
framing of the related work in PAPERS.md.

Two kinds of tags coexist:

* **manual tags** — ``repro.trace.ops.tag(x, "name")``, placed by model
  authors so schedules can target the value by name
  (:func:`repro.core.actions.find_tagged`), and
* **auto tags** — emitted by the tracer after every matmul-like, reduce
  and scan op (attrs carry ``auto=True``; names are ``auto/<opcode>/<n>``
  and never collide with manual names).

Both kinds are *tag points*: :func:`tag_points` enumerates them in the
canonical pre-order walk, and that walk index is a tag point's portable
name — two processes holding structurally-identical functions (e.g. a
search worker that received the function over pickle) agree on every tag
point's index.  The list is one of the views of
:class:`repro.ir.function.FunctionIndex`, the one derivation of a
function's positions, beside the value indices of
:meth:`repro.core.sharding.ShardingEnv.portable_state`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.ir.values import Operation, Value

#: Prefix of tracer-generated tag names (guaranteed to never collide with
#: manual ``ops.tag`` names, which may not start with it).
AUTO_TAG_PREFIX = "auto/"


def is_auto_tag(op: Operation) -> bool:
    """Was this ``tag`` op emitted by the tracer (vs placed manually)?"""
    return op.opcode == "tag" and bool(op.attrs.get("auto"))


@dataclasses.dataclass(frozen=True)
class TagPoint:
    """One addressable interior program point.

    Attributes:
        index: position in the function's canonical tag-point enumeration
            (pre-order walk over all ``tag`` ops, regions included) — the
            portable, process-independent name used in search actions.
        name: the tag's ``name`` attr.
        op: the ``tag`` op itself.
        value: the tagged value (the tag op's result).
        root: the underlying computed value the marker chain annotates —
            the tag's operand, walked through directly-chained tags.  Two
            tag points with the same root are propagation-identical
            (stacked markers over one computation); points over different
            results of one multi-result op (scan carries) have distinct
            roots.
        source: the op producing the tagged computation (``root``'s
            producer), or ``None`` when the tag marks a function
            parameter.  ``SUM_TAGGED`` actions tile a contracting factor
            of this op.
        auto: whether the tracer emitted the tag.
    """

    index: int
    name: str
    op: Operation
    value: Value
    root: Value
    source: Optional[Operation]
    auto: bool

    @classmethod
    def at(cls, index: int, op: Operation) -> "TagPoint":
        """The tag point of ``tag`` op ``op`` at walk position ``index``."""
        root = _root_value(op)
        return cls(index=index, name=str(op.attrs.get("name", "")), op=op,
                   value=op.results[0], root=root, source=root.producer,
                   auto=is_auto_tag(op))


def _root_value(tag_op: Operation) -> Value:
    value = tag_op.operands[0]
    while value.producer is not None and value.producer.opcode == "tag":
        value = value.producer.operands[0]
    return value


def tag_points(function) -> List[TagPoint]:
    """Every tag point of ``function``, in canonical pre-order walk order
    (``function.index.tag_points``: built once per function)."""
    return function.index.tag_points
