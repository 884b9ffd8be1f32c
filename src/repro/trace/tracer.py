"""Python-to-IR tracing, the library's JAX-analogue frontend.

``trace(f, *specs)`` calls ``f`` with :class:`TracedArray` arguments and
records every primitive into an :class:`repro.ir.Function`.  Nested pytrees
of :class:`ShapeDtype` specs become flat function parameters named after
their pytree paths (``params.block_0.qkv_w``), which is what the schedule
API's name-based tactics match against.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.ir import dtypes
from repro.ir.function import Function, FunctionBuilder
from repro.ir.types import TensorType
from repro.ir.values import Value
from repro.trace import pytree


@dataclasses.dataclass(frozen=True)
class ShapeDtype:
    """A tracing spec: shape + dtype (the analogue of jax.ShapeDtypeStruct)."""

    shape: Tuple[int, ...]
    dtype: dtypes.DType = dtypes.f32

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))


_STATE = threading.local()


def current_tracer() -> "Tracer":
    tracer = getattr(_STATE, "tracer", None)
    if tracer is None:
        raise TraceError("no active tracer; primitives must run under trace()")
    return tracer


#: Opcodes whose outputs are *candidate tag points*: after emitting one of
#: these, the tracer (unless ``tag_points=False``) appends an auto-named
#: ``tag`` marker so the automatic-partitioning search can treat the
#: interior value as a first-class decision variable.  ``scan`` results are
#: tagged separately in :func:`repro.trace.ops.scan` (multi-result).
AUTO_TAG_OPCODES = frozenset({
    "dot_general", "conv2d", "reduce_sum", "reduce_max", "scatter_add",
})


class Tracer:
    """Holds the builder that traced primitives append to.

    ``tag_points=True`` (the default) auto-emits a ``tag`` marker op after
    every matmul-like / reduce primitive (:data:`AUTO_TAG_OPCODES`) and
    after every ``scan`` result: numerically the identity, zero cost in the
    simulator, dropped from device-local code at lowering — but an
    addressable interior program point (see :mod:`repro.ir.tagpoints`) the
    search's ``TILE_TAGGED``/``SUM_TAGGED`` actions can target.  Because VJP
    rules emit through the same tracer, backward-pass matmuls and reduces
    become tag points too.
    """

    def __init__(self, name: str = "main", tag_points: bool = True):
        self.builder = FunctionBuilder(name)
        self.tag_points = tag_points
        self._auto_tags = 0

    def auto_tag(self, value: Value, opcode: str) -> Value:
        """Wrap ``value`` in an auto-named tag marker (see class doc)."""
        name = f"auto/{opcode}/{self._auto_tags}"
        self._auto_tags += 1
        return self.builder.emit1("tag", [value],
                                  {"name": name, "auto": True})

    @contextlib.contextmanager
    def active(self):
        previous = getattr(_STATE, "tracer", None)
        _STATE.tracer = self
        try:
            yield self
        finally:
            _STATE.tracer = previous

    def emit(self, opcode, operands: Sequence["TracedArray"], attrs=None,
             regions=None) -> "TracedArray":
        values = [o.value for o in operands]
        result = self.builder.emit1(opcode, values, attrs, regions)
        if self.tag_points and opcode in AUTO_TAG_OPCODES:
            result = self.auto_tag(result, opcode)
        return TracedArray(result, self)

    def wrap(self, value: Value) -> "TracedArray":
        return TracedArray(value, self)

    def constant(self, array, dtype: Optional[dtypes.DType] = None) -> "TracedArray":
        array = np.asarray(array)
        if dtype is not None:
            array = array.astype(dtype.np_dtype)
        elif array.dtype == np.float64:
            array = array.astype(np.float32)
        elif array.dtype == np.int64:
            array = array.astype(np.int32)
        value = self.builder.emit1("constant", [], {"value": array})
        return TracedArray(value, self)


class TracedArray:
    """A traced tensor: wraps an SSA :class:`Value` and overloads operators.

    Binary operators perform numpy-style broadcasting by inserting explicit
    ``broadcast_in_dim`` ops, as StableHLO requires.

    ``tracer`` resolves to the *currently active* tracer: an op applied to a
    value captured from an enclosing trace (e.g. model parameters referenced
    inside a ``scan`` body) must be emitted into the inner region; the scan
    capture analysis threads the outer value through as an invariant.
    """

    __slots__ = ("value", "_tracer")

    def __init__(self, value: Value, tracer: Tracer):
        self.value = value
        self._tracer = tracer

    @property
    def tracer(self) -> Tracer:
        active = getattr(_STATE, "tracer", None)
        return active if active is not None else self._tracer

    # -- metadata ----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.type.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self) -> dtypes.DType:
        return self.value.type.dtype

    def __repr__(self) -> str:
        return f"TracedArray({self.value.type})"

    # -- broadcasting helpers ------------------------------------------------
    def _lift(self, other) -> "TracedArray":
        if isinstance(other, TracedArray):
            return other
        return self.tracer.constant(np.asarray(other), dtype=self.dtype)

    def _binop(self, opcode: str, other, reverse: bool = False) -> "TracedArray":
        other = self._lift(other)
        lhs, rhs = (other, self) if reverse else (self, other)
        lhs, rhs = broadcast_together(lhs, rhs)
        return self.tracer.emit(opcode, [lhs, rhs])

    # -- operators -----------------------------------------------------------
    def __add__(self, other):
        return self._binop("add", other)

    def __radd__(self, other):
        return self._binop("add", other, reverse=True)

    def __sub__(self, other):
        return self._binop("sub", other)

    def __rsub__(self, other):
        return self._binop("sub", other, reverse=True)

    def __mul__(self, other):
        return self._binop("mul", other)

    def __rmul__(self, other):
        return self._binop("mul", other, reverse=True)

    def __truediv__(self, other):
        return self._binop("div", other)

    def __rtruediv__(self, other):
        return self._binop("div", other, reverse=True)

    def __pow__(self, other):
        return self._binop("pow", other)

    def __neg__(self):
        return self.tracer.emit("neg", [self])

    def __matmul__(self, other):
        from repro.trace import ops

        return ops.matmul(self, self._lift(other))

    def _compare(self, direction, other):
        other = self._lift(other)
        lhs, rhs = broadcast_together(self, other)
        return self.tracer.emit("compare", [lhs, rhs], {"direction": direction})

    def __lt__(self, other):
        return self._compare("LT", other)

    def __le__(self, other):
        return self._compare("LE", other)

    def __gt__(self, other):
        return self._compare("GT", other)

    def __ge__(self, other):
        return self._compare("GE", other)

    # NB: __eq__ must stay identity-based for hashing in dicts; use ops.equal.

    def reshape(self, *shape) -> "TracedArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self.tracer.emit("reshape", [self], {"new_shape": tuple(shape)})

    def transpose(self, *perm) -> "TracedArray":
        if len(perm) == 1 and isinstance(perm[0], (tuple, list)):
            perm = tuple(perm[0])
        if not perm:
            perm = tuple(reversed(range(self.ndim)))
        return self.tracer.emit("transpose", [self], {"permutation": tuple(perm)})

    @property
    def T(self) -> "TracedArray":
        return self.transpose()

    def sum(self, axis=None, keepdims=False):
        from repro.trace import ops

        return ops.reduce_sum(self, axis=axis, keepdims=keepdims)

    def __getitem__(self, index) -> "TracedArray":
        """Static basic slicing (ints and slices with static bounds)."""
        if not isinstance(index, tuple):
            index = (index,)
        starts, limits, strides, squeeze = [], [], [], []
        dim = 0
        for item in index:
            size = self.shape[dim]
            if isinstance(item, int):
                if item < 0:
                    item += size
                starts.append(item)
                limits.append(item + 1)
                strides.append(1)
                squeeze.append(dim)
            elif isinstance(item, slice):
                start, stop, step = item.indices(size)
                if step <= 0:
                    raise TraceError("negative slice steps are not supported")
                starts.append(start)
                limits.append(stop)
                strides.append(step)
            else:
                raise TraceError(f"unsupported index {item!r}")
            dim += 1
        for d in range(dim, self.ndim):
            starts.append(0)
            limits.append(self.shape[d])
            strides.append(1)
        out = self.tracer.emit(
            "slice",
            [self],
            {"starts": tuple(starts), "limits": tuple(limits),
             "strides": tuple(strides)},
        )
        if squeeze:
            new_shape = tuple(
                s for d, s in enumerate(out.shape) if d not in squeeze
            )
            out = out.reshape(new_shape)
        return out


def broadcast_to(x: TracedArray, shape: Tuple[int, ...]) -> TracedArray:
    """Broadcast ``x`` to ``shape`` with numpy trailing-dimension alignment."""
    shape = tuple(shape)
    if x.shape == shape:
        return x
    offset = len(shape) - x.ndim
    if offset < 0:
        raise TraceError(f"cannot broadcast {x.shape} to {shape}")
    bdims = []
    for d, size in enumerate(x.shape):
        out_dim = d + offset
        if size not in (1, shape[out_dim]):
            raise TraceError(f"cannot broadcast {x.shape} to {shape}")
        bdims.append(out_dim)
    return x.tracer.emit(
        "broadcast_in_dim",
        [x],
        {"shape": shape, "broadcast_dimensions": tuple(bdims)},
    )


def broadcast_together(a: TracedArray, b: TracedArray):
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    return broadcast_to(a, out_shape), broadcast_to(b, out_shape)


@dataclasses.dataclass
class TracedFunction:
    """Result of tracing: an IR function plus pytree metadata."""

    function: Function
    in_treedef: Any
    out_treedef: Any
    input_names: List[str]
    output_names: List[str]

    def flatten_args(self, *args) -> List[np.ndarray]:
        leaves, treedef = pytree.flatten(list(args))
        if treedef != self.in_treedef:
            raise TraceError("argument pytree structure differs from trace time")
        return [np.asarray(leaf) for leaf in leaves]

    def unflatten_results(self, flat_results):
        return pytree.unflatten(self.out_treedef, list(flat_results))


def _spec_of(leaf) -> ShapeDtype:
    if isinstance(leaf, ShapeDtype):
        return leaf
    if isinstance(leaf, np.ndarray):
        return ShapeDtype(leaf.shape, dtypes.from_numpy(leaf.dtype))
    if isinstance(leaf, (float, int)):
        return ShapeDtype((), dtypes.f32 if isinstance(leaf, float) else dtypes.i32)
    raise TraceError(
        f"trace spec leaves must be ShapeDtype or ndarray, got {type(leaf)!r}"
    )


def trace(f, *arg_specs, name: str = "main",
          tag_points: bool = True) -> TracedFunction:
    """Trace ``f`` applied to pytrees of :class:`ShapeDtype` specs.

    ``tag_points=True`` (default) auto-emits candidate tag points at
    matmul/scan/reduce outputs — numerically-transparent identity markers
    the automatic search's mid-function actions target; pass ``False`` to
    trace the bare program.
    """
    paths = pytree.flatten_with_paths(list(arg_specs))
    _, in_treedef = pytree.flatten(list(arg_specs))
    tracer = Tracer(name, tag_points=tag_points)
    traced_leaves = []
    input_names = []
    for path, leaf in paths:
        spec = _spec_of(leaf)
        # Drop the leading positional index for single-arg functions.
        pname = path.replace(".", "/")
        value = tracer.builder.param(spec.shape, spec.dtype, name=pname)
        traced_leaves.append(TracedArray(value, tracer))
        input_names.append(pname)
    args = pytree.unflatten(in_treedef, traced_leaves)
    with tracer.active():
        out = f(*args)
    out_leaves, out_treedef = pytree.flatten(out)
    flat_results = []
    output_names = []
    for path, leaf in pytree.flatten_with_paths(out):
        if not isinstance(leaf, TracedArray):
            raise TraceError(
                f"traced function returned non-TracedArray leaf at {path!r}"
            )
        flat_results.append(leaf.value)
        output_names.append(path.replace(".", "/"))
    function = tracer.builder.ret(*flat_results, names=output_names)
    function.input_names = input_names
    return TracedFunction(function, in_treedef, out_treedef,
                          input_names, output_names)
