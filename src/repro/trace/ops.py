"""Traceable numpy-like primitives operating on :class:`TracedArray`.

These are what the NN library (``repro.nn``) is written against, mirroring
``jax.numpy``/``lax`` usage in the paper's benchmark models.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.ir import dtypes
from repro.ir.function import Function
from repro.trace.tracer import (
    TracedArray,
    Tracer,
    broadcast_to,
    broadcast_together,
    current_tracer,
)

Axis = Union[int, Sequence[int], None]


def constant(array, dtype: Optional[dtypes.DType] = None) -> TracedArray:
    return current_tracer().constant(array, dtype)


def zeros(shape, dtype: dtypes.DType = dtypes.f32) -> TracedArray:
    return full(shape, 0.0, dtype)


def full(shape, fill_value, dtype: dtypes.DType = dtypes.f32) -> TracedArray:
    scalar = constant(np.asarray(fill_value, dtype=dtype.np_dtype))
    return broadcast_to(scalar, tuple(shape))


def zeros_like(x: TracedArray) -> TracedArray:
    return full(x.shape, 0.0, x.dtype)


def iota(shape, dim: int, dtype: dtypes.DType = dtypes.i32) -> TracedArray:
    return current_tracer().emit(
        "iota", [], {"shape": tuple(shape), "dim": dim, "dtype": dtype}
    )


# -- elementwise -------------------------------------------------------------

def _unary(opcode):
    def fn(x: TracedArray) -> TracedArray:
        return x.tracer.emit(opcode, [x])

    fn.__name__ = opcode
    return fn


exp = _unary("exp")
log = _unary("log")
tanh = _unary("tanh")
sqrt = _unary("sqrt")
rsqrt = _unary("rsqrt")
sigmoid = _unary("logistic")
sin = _unary("sin")
cos = _unary("cos")
abs_ = _unary("abs")
neg = _unary("neg")
stop_gradient = _unary("stop_gradient")


def maximum(a, b) -> TracedArray:
    if not isinstance(a, TracedArray):
        a, b = b, a
        return a._binop("maximum", b, reverse=True)
    return a._binop("maximum", b)


def minimum(a, b) -> TracedArray:
    if not isinstance(a, TracedArray):
        a, b = b, a
        return a._binop("minimum", b, reverse=True)
    return a._binop("minimum", b)


def relu(x: TracedArray) -> TracedArray:
    return maximum(x, 0.0)


def gelu(x: TracedArray) -> TracedArray:
    """tanh-approximated GELU, as used by the paper's transformer models."""
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (tanh(c * (x + 0.044715 * x * x * x)) + 1.0)


def equal(a: TracedArray, b) -> TracedArray:
    return a._compare("EQ", b)


def select(pred: TracedArray, on_true, on_false) -> TracedArray:
    tracer = pred.tracer
    if not isinstance(on_true, TracedArray):
        on_true = full(pred.shape, on_true)
    if not isinstance(on_false, TracedArray):
        on_false = full(pred.shape, on_false)
    on_true = broadcast_to(on_true, pred.shape)
    on_false = broadcast_to(on_false, pred.shape)
    return tracer.emit("select", [pred, on_true, on_false])


where = select


def convert(x: TracedArray, dtype: dtypes.DType) -> TracedArray:
    if x.dtype is dtype:
        return x
    return x.tracer.emit("convert", [x], {"dtype": dtype})


# -- reductions ----------------------------------------------------------------

def _norm_axis(axis: Axis, rank: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(rank))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % rank for a in axis))


def _keepdims(x: TracedArray, reduced: TracedArray, dims) -> TracedArray:
    shape = list(x.shape)
    for d in dims:
        shape[d] = 1
    return reduced.reshape(tuple(shape))


def reduce_sum(x: TracedArray, axis: Axis = None, keepdims: bool = False):
    dims = _norm_axis(axis, x.ndim)
    out = x.tracer.emit("reduce_sum", [x], {"dims": dims})
    return _keepdims(x, out, dims) if keepdims else out


def reduce_max(x: TracedArray, axis: Axis = None, keepdims: bool = False):
    dims = _norm_axis(axis, x.ndim)
    out = x.tracer.emit("reduce_max", [x], {"dims": dims})
    return _keepdims(x, out, dims) if keepdims else out


def mean(x: TracedArray, axis: Axis = None, keepdims: bool = False):
    dims = _norm_axis(axis, x.ndim)
    count = math.prod(x.shape[d] for d in dims)
    return reduce_sum(x, axis, keepdims) * (1.0 / count)


def softmax(x: TracedArray, axis: int = -1) -> TracedArray:
    shifted = x - reduce_max(x, axis=axis, keepdims=True)
    e = exp(shifted)
    return e / reduce_sum(e, axis=axis, keepdims=True)


def logsumexp(x: TracedArray, axis: int = -1, keepdims: bool = False):
    m = reduce_max(x, axis=axis, keepdims=True)
    out = log(reduce_sum(exp(x - m), axis=axis, keepdims=True)) + m
    if keepdims:
        return out
    dims = _norm_axis(axis, x.ndim)
    return out.reshape(tuple(s for d, s in enumerate(x.shape) if d not in dims))


# -- structural ----------------------------------------------------------------

def transpose(x: TracedArray, perm=None) -> TracedArray:
    return x.transpose(*(perm or ()))


def reshape(x: TracedArray, shape) -> TracedArray:
    return x.reshape(tuple(shape))


def concatenate(xs: Sequence[TracedArray], axis: int = 0) -> TracedArray:
    tracer = xs[0].tracer
    return tracer.emit("concatenate", list(xs), {"dim": axis % xs[0].ndim})


def pad(x: TracedArray, low, high) -> TracedArray:
    return x.tracer.emit("pad", [x], {"low": tuple(low), "high": tuple(high)})


# -- matmul / dot_general --------------------------------------------------------

def dot_general(
    lhs: TracedArray,
    rhs: TracedArray,
    contracting: Tuple[Sequence[int], Sequence[int]],
    batch: Tuple[Sequence[int], Sequence[int]] = ((), ()),
) -> TracedArray:
    return lhs.tracer.emit(
        "dot_general",
        [lhs, rhs],
        {
            "lhs_contract": tuple(contracting[0]),
            "rhs_contract": tuple(contracting[1]),
            "lhs_batch": tuple(batch[0]),
            "rhs_batch": tuple(batch[1]),
        },
    )


def matmul(lhs: TracedArray, rhs: TracedArray) -> TracedArray:
    """numpy-style matmul: contracts lhs's last dim with rhs's second-to-last
    (or only) dim; leading rhs dims must be absent (rank<=2 rhs) or batch."""
    if rhs.ndim == 1:
        return dot_general(lhs, rhs, ((lhs.ndim - 1,), (0,)))
    if rhs.ndim == 2:
        return dot_general(lhs, rhs, ((lhs.ndim - 1,), (0,)))
    if lhs.ndim == rhs.ndim:
        nbatch = lhs.ndim - 2
        batch_dims = tuple(range(nbatch))
        return dot_general(
            lhs, rhs,
            ((lhs.ndim - 1,), (rhs.ndim - 2,)),
            (batch_dims, batch_dims),
        )
    raise TraceError(f"matmul rank combination {lhs.ndim}/{rhs.ndim} unsupported")


# -- gather / scatter -------------------------------------------------------------

def take(operand: TracedArray, indices: TracedArray) -> TracedArray:
    """Gather rows of ``operand`` (along dim 0) at integer ``indices``."""
    return operand.tracer.emit("take", [operand, indices])


def scatter_add(
    operand: TracedArray, indices: TracedArray, updates: TracedArray
) -> TracedArray:
    return operand.tracer.emit("scatter_add", [operand, indices, updates])


def one_hot(indices: TracedArray, num_classes: int,
            dtype: dtypes.DType = dtypes.f32) -> TracedArray:
    """One-hot encode integer ``indices`` as a trailing dimension."""
    out_shape = indices.shape + (num_classes,)
    classes = iota(out_shape, dim=indices.ndim, dtype=indices.dtype)
    expanded = broadcast_to(
        indices.reshape(indices.shape + (1,)), out_shape
    )
    return select(equal(classes, expanded), full(out_shape, 1.0, dtype),
                  full(out_shape, 0.0, dtype))


# -- dynamic slicing (serving loop) --------------------------------------------

def dynamic_slice_in_dim(operand: TracedArray, index: TracedArray,
                         size: int, dim: int) -> TracedArray:
    return operand.tracer.emit(
        "dynamic_slice_in_dim", [operand, index], {"dim": dim, "size": size}
    )


def dynamic_update_slice_in_dim(operand: TracedArray, update: TracedArray,
                                index: TracedArray, dim: int) -> TracedArray:
    return operand.tracer.emit(
        "dynamic_update_slice_in_dim", [operand, update, index], {"dim": dim}
    )


# -- convolution ------------------------------------------------------------------

def conv2d(x: TracedArray, kernel: TracedArray, stride: int = 1,
           pad: int = 0) -> TracedArray:
    return x.tracer.emit("conv2d", [x, kernel], {"stride": stride, "pad": pad})


def upsample2d(x: TracedArray, factor: int) -> TracedArray:
    return x.tracer.emit("upsample2d", [x], {"factor": factor})


def downsample2d_sum(x: TracedArray, factor: int) -> TracedArray:
    return x.tracer.emit("downsample2d_sum", [x], {"factor": factor})


# -- loops ------------------------------------------------------------------------

def _trace_region(outer: Tracer, name: str, carries: Sequence[TracedArray],
                  fn) -> Function:
    """Trace ``fn(index, *carries)`` into a fresh region function whose
    params are ``(step, carry0, carry1, ...)``."""
    inner = Tracer(name, tag_points=outer.tag_points)
    index = TracedArray(
        inner.builder.param((), dtypes.i32, name="step"), inner
    )
    inner_carries = [
        TracedArray(inner.builder.param(c.shape, c.dtype, name=f"carry{i}"),
                    inner)
        for i, c in enumerate(carries)
    ]
    with inner.active():
        results = fn(index, *inner_carries)
    if isinstance(results, TracedArray):
        results = [results]
    return inner.builder.ret(*[r.value for r in results])


def _captured_values(region: Function):
    """Operands used inside ``region`` but defined outside it, in first-use
    walk order."""
    defined = set(region.params)
    for op_ in region.walk():
        defined.update(op_.results)
        for nested in op_.regions:
            defined.update(nested.params)
    captured = []
    captured_set = {}
    for op_ in region.walk():
        for operand in op_.operands:
            if operand not in defined and operand not in captured_set:
                captured_set[operand] = None
                captured.append(operand)
    return captured


def _thread_invariants(body: Function):
    """Capture analysis: operands used in the body but defined outside
    become invariant body parameters (returned in declaration order)."""
    captured = _captured_values(body)
    substitution = {}
    for i, outer_value in enumerate(captured):
        param = body.add_param(outer_value.type,
                               name=outer_value.name or f"invariant{i}")
        substitution[outer_value] = param
    if substitution:
        for op_ in body.walk():
            op_.operands = [substitution.get(o, o) for o in op_.operands]
        body.results = [substitution.get(r, r) for r in body.results]
    return captured


def _emit_loop(opcode: str, body_fn, init_carries: Sequence[TracedArray],
               trip_count: int, extra_regions: Sequence[Function] = (),
               extra_attrs: Optional[dict] = None):
    """Shared loop emission: trace the body, thread captured invariants,
    emit ``opcode`` and auto-tag the carry results."""
    outer = current_tracer()
    body = _trace_region(outer, "body", init_carries, body_fn)
    captured = _thread_invariants(body)
    attrs = {"trip_count": trip_count, "num_carries": len(init_carries)}
    if extra_attrs:
        attrs.update(extra_attrs)
    op = outer.builder.emit(
        opcode,
        [c.value for c in init_carries] + captured,
        attrs,
        regions=[body] + list(extra_regions),
    )
    results_out = list(op.results)
    if outer.tag_points:
        # Loop results are candidate tag points too (the serving loop's KV
        # caches and accumulators); multi-result, so tagged here rather
        # than in Tracer.emit.
        results_out = [outer.auto_tag(r, opcode) for r in results_out]
    outs = [TracedArray(r, outer) for r in results_out]
    return outs[0] if len(outs) == 1 else outs


def scan(body_fn, init_carries: Sequence[TracedArray], trip_count: int):
    """Counted loop. ``body_fn(index, *carries) -> carries`` is traced once
    into a region; the op models an unrolled serving loop of ``trip_count``
    steps (collective counters scale per-iteration collectives by it).

    Values the body closes over (e.g. model parameters) are detected and
    threaded through as loop-*invariant* operands / body parameters.
    """
    return _emit_loop("scan", body_fn, init_carries, trip_count)


def fori_loop(lower: int, upper: int, body_fn,
              init_carries: Sequence[TracedArray]):
    """Counted loop over ``range(lower, upper)``, jax.lax-style.

    ``body_fn(i, *carries) -> carries`` sees the *absolute* index ``i``:
    the lower bound is folded into the traced body (the region's step param
    still counts from 0), so every downstream consumer — interpreter,
    executor, propagation, cost model — shares scan's calling convention.
    ``lower``/``upper`` must be static Python ints.
    """
    lower, upper = int(lower), int(upper)
    if upper < lower:
        raise TraceError(
            f"fori_loop bounds are empty-or-reversed: [{lower}, {upper})"
        )
    if isinstance(init_carries, TracedArray):
        init_carries = [init_carries]

    def offset_body(step, *carries):
        index = step + lower if lower else step
        return body_fn(index, *carries)

    return _emit_loop("fori_loop", offset_body, init_carries,
                      upper - lower, extra_attrs={"lower": lower})


def while_loop(cond_fn, body_fn, init_carries: Sequence[TracedArray],
               trip_count_hint: int = 1):
    """Conditional loop: run ``body_fn`` while ``cond_fn`` holds.

    ``cond_fn(i, *carries) -> scalar pred`` is traced into a second region.
    The predicate may read only the step index and the carries — closing
    over outer values inside the condition is a :class:`TraceError`
    (thread such values through the carries instead).  Static consumers
    (the cost model, the collective counters) price the loop at
    ``trip_count_hint`` iterations; the interpreter and the simulated mesh
    run the predicate for real.
    """
    outer = current_tracer()
    if isinstance(init_carries, TracedArray):
        init_carries = [init_carries]
    cond = _trace_region(outer, "cond", init_carries, cond_fn)
    if _captured_values(cond):
        raise TraceError(
            "while_loop cond may only read the step index and the carries; "
            "thread captured values through the carries instead"
        )
    if len(cond.results) != 1 or cond.results[0].type.shape != ():
        raise TraceError("while_loop cond must return one scalar predicate")
    return _emit_loop("while_loop", body_fn, init_carries,
                      int(trip_count_hint), extra_regions=[cond])


def tag(x: TracedArray, name: str) -> TracedArray:
    """Name an internal value so schedules can target it (paper Section 8)."""
    return x.tracer.emit("tag", [x], {"name": name})
