"""Collective fusion passes (Section 6).

* ``all_slice(all_reduce(x))`` -> ``reduce_scatter`` (plus a residual
  ``all_reduce`` if the slice covers only part of the reduction axes),
* ``all_slice(all_gather(x))`` -> identity when they cancel exactly,
  ``all_to_all`` when the same axes move between two dims.

Fusion rewrites the device-local function; it never changes semantics, only
which collective implements them — exactly the fusions the paper describes.

The pass is plan-then-rebuild: one planning sweep collects *every*
non-overlapping producer/consumer pair (each is gated on the producer's
result having a single use), then a single rebuild applies them all — so
``fuse_collectives`` costs one rebuild per fusion *generation*, not one per
fused pair.  The outer fixed-point loop only re-enters when applying a
generation exposes a chain that was not fusable before (it terminates
immediately otherwise, without rebuilding).  Region bodies (scan) are fused
once up front rather than re-walked inside every rebuild.

This is the only implementation of the fusion rule, and it is now applied
per chain: :mod:`repro.spmd.lower` records each distinct reconcile chain
once into a scratch function, runs this pass over it, and instantiates the
fused chain wherever it recurs; the search's estimator
(:mod:`repro.sim.costmodel`) prices those same fused chains.  A chain's
intermediates are single-use, so no fusable pair straddles two chains and
``fuse_collectives`` over a lowering finds nothing left to do
(``tests/test_lower_templates.py`` checks that on every model family).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.function import Function, FunctionBuilder
from repro.ir.values import Operation, Value


def fuse_collectives(function: Function) -> Function:
    """Run fusion to a fixed point.

    Returns a new function when some top-level pair fuses, and
    ``function`` itself when none does.  Either way each loop op's
    regions are fused first and replaced *in place* on the input's ops.

    >>> from repro.ir.function import FunctionBuilder
    >>> builder = FunctionBuilder("grad")
    >>> grad = builder.param((8, 8))
    >>> total = builder.emit1("all_reduce", [grad], {
    ...     "axes": ("B",), "kind": "add", "sizes": {"B": 2}})
    >>> shard = builder.emit1("all_slice", [total], {
    ...     "dims": (("B",), ()), "sizes": {"B": 2}})
    >>> fused = fuse_collectives(builder.ret(shard))
    >>> [op.opcode for op in fused.ops], fused.results[0].type
    (['reduce_scatter'], tensor<4x8xf32>)
    >>> fuse_collectives(fused) is fused  # nothing to fuse: the input back
    True
    """
    # Region bodies (scan) are fused first, regardless of whether the top
    # level has any fusion opportunities of its own.
    for op in function.ops:
        if op.regions:
            op.regions = [fuse_collectives(region) for region in op.regions]
    while True:
        fused_into, consumed = _plan_fusions(function)
        if not fused_into:
            return function
        function = _apply_fusions(function, fused_into, consumed)


def single_axis_move(gather_dims, slice_dims) -> Optional[dict]:
    """Detect a pure axis move: gather axes on one dim, slice the same axes
    on a different dim."""
    g_dims = [d for d, axes in enumerate(gather_dims) if axes]
    s_dims = [d for d, axes in enumerate(slice_dims) if axes]
    if len(g_dims) != 1 or len(s_dims) != 1 or g_dims[0] == s_dims[0]:
        return None
    if tuple(gather_dims[g_dims[0]]) != tuple(slice_dims[s_dims[0]]):
        return None
    return {
        "gather_dim": g_dims[0],
        "slice_dim": s_dims[0],
        "axes": tuple(gather_dims[g_dims[0]]),
    }


def _plan_fusions(function: Function):
    """One sweep over the function collecting all fusable pairs.

    Returns ``(fused_into, consumed)``: producer op id -> the consuming
    ``all_slice`` to fuse it with, and the set of consumed slice op ids.
    """
    uses: Dict[Value, int] = {}
    for op in function.ops:
        for operand in op.operands:
            uses[operand] = uses.get(operand, 0) + 1
    for result in function.results:
        uses[result] = uses.get(result, 0) + 1

    fused_into: Dict[int, Operation] = {}
    consumed = set()
    for op in function.ops:
        if op.opcode != "all_slice":
            continue
        producer = op.operands[0].producer
        if producer is None or id(producer) in fused_into:
            continue
        if uses.get(producer.results[0], 0) != 1:
            continue
        if producer.opcode == "all_reduce":
            reduce_axes = set(producer.attrs["axes"])
            slice_axes = {a for axes in op.attrs["dims"] for a in axes}
            if slice_axes and slice_axes <= reduce_axes:
                fused_into[id(producer)] = op
                consumed.add(id(op))
        elif producer.opcode == "all_gather":
            g_dims = producer.attrs["dims"]
            s_dims = op.attrs["dims"]
            if tuple(g_dims) == tuple(s_dims):
                fused_into[id(producer)] = op
                consumed.add(id(op))
            elif single_axis_move(g_dims, s_dims) is not None:
                fused_into[id(producer)] = op
                consumed.add(id(op))
    return fused_into, consumed


def _apply_fusions(function: Function, fused_into: Dict[int, Operation],
                   consumed) -> Function:
    """Rebuild the function once, applying every planned fusion."""
    builder = FunctionBuilder(function.name)
    subst: Dict[Value, Value] = {}
    for param in function.params:
        new = builder.function.add_param(param.type, name=param.name)
        subst[param] = new
    builder.function.input_names = list(function.input_names)

    def remap(value: Value) -> Value:
        return subst.get(value, value)

    for op in function.ops:
        if id(op) in consumed:
            continue
        operands = [remap(o) for o in op.operands]
        if id(op) in fused_into:
            consumer = fused_into[id(op)]
            new_value = _emit_fused(builder, op, consumer, operands[0])
            subst[consumer.results[0]] = new_value
            subst[op.results[0]] = new_value  # producer result is dead
            continue
        new_op = builder.emit(op.opcode, operands, dict(op.attrs),
                              op.regions or None)
        for old, new in zip(op.results, new_op.results):
            new.name = old.name
            subst[old] = new
    builder.ret(*[remap(r) for r in function.results],
                names=function.output_names)
    return builder.function


def _emit_fused(builder: FunctionBuilder, producer: Operation,
                consumer: Operation, operand: Value) -> Value:
    if producer.opcode == "all_reduce":
        reduce_axes = tuple(producer.attrs["axes"])
        slice_dims = consumer.attrs["dims"]
        slice_axes = {a for axes in slice_dims for a in axes}
        residual = tuple(a for a in reduce_axes if a not in slice_axes)
        value = operand
        if residual:
            value = builder.emit1(
                "all_reduce",
                [value],
                {
                    "axes": residual,
                    "kind": producer.attrs.get("kind", "add"),
                    "sizes": {a: producer.attrs["sizes"][a] for a in residual},
                },
            )
        attrs = dict(consumer.attrs)
        attrs["kind"] = producer.attrs.get("kind", "add")
        return builder.emit1("reduce_scatter", [value], attrs)

    # all_gather + all_slice
    g_dims = producer.attrs["dims"]
    s_dims = consumer.attrs["dims"]
    if tuple(g_dims) == tuple(s_dims):
        return operand  # exact cancellation
    move = single_axis_move(g_dims, s_dims)
    assert move is not None
    return builder.emit1(
        "all_to_all",
        [operand],
        {
            **move,
            "sizes": {a: producer.attrs["sizes"][a] for a in move["axes"]},
            "operand_dims": producer.attrs.get("operand_dims"),
            "result_dims": consumer.attrs.get("result_dims"),
        },
    )
