"""Functions, modules and the builder used by the tracer and the passes."""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TypeInferenceError
from repro.ir import opdefs
from repro.ir.tagpoints import TagPoint
from repro.ir.types import TensorType
from repro.ir.values import Operation, Value


class Function:
    """A function: parameters, a flat op list, and result values.

    Also used for op *regions* (e.g. the body of ``scan``), in which case
    ``name`` is conventionally ``"body"``.

    Everything derived from the structure -- :attr:`index`, propagation's
    transfer records, the lowering-plan tables, a pipelined body's stage
    split -- lives in one memo, :meth:`derived`, which never rides a
    pickle: a used function pickles to the bytes of a fresh one.
    """

    #: ``(len(ops) when built, {key: view})``.
    _derived: Optional[Tuple[int, dict]] = None

    def __init__(self, name: str):
        self.name = name
        self.params: List[Value] = []
        self.ops: List[Operation] = []
        self.results: List[Value] = []
        # Optional metadata: maps user-facing input names to param indices.
        self.input_names: List[str] = []
        self.output_names: List[str] = []

    def __getstate__(self):
        # Views are rebuilt on demand and hold process-local objects
        # (canonical interned shardings, plans).
        state = dict(self.__dict__)
        state.pop("_derived", None)
        return state

    def derived(self, key, build: Callable[["Function"], Any]) -> Any:
        """The view ``build(self)``, built once and memoized under ``key``.

        A key is the name of the public function serving the view, or a
        tuple of that name and the view's parameters (``("plan_table",
        mesh axes)``), so no two views collide.  Every view is dropped
        when ``len(self.ops)`` changes; any other edit after a view was
        built (added params, rewired operands, a region grown in place)
        is unsupported -- every builder in this codebase constructs fresh
        functions.  Racing first builds of one key keep one view.
        """
        memo = self._derived
        if memo is None or memo[0] != len(self.ops):
            memo = self._derived = (len(self.ops), {})
        views = memo[1]
        view = views.get(key)
        if view is None:
            view = views.setdefault(key, build(self))
        return view

    @property
    def index(self) -> "FunctionIndex":
        """The function's structural positions (see :class:`FunctionIndex`).

        >>> from repro.trace.tracer import trace, ShapeDtype
        >>> from repro.trace import ops
        >>> tf = trace(lambda x: ops.scan(lambda i, c: [c * x], [x], 4),
        ...            ShapeDtype((4,)))
        >>> index = tf.function.index
        >>> [op.opcode for op in index.ops]  # the body after its scan
        ['scan', 'mul', 'tag']
        >>> # x; the scan's result, then its body (step, carry and captured
        >>> # x params, the mul); last the tracer's tag on the scan.
        >>> [v.producer.opcode if v.producer else "param"
        ...  for v in index.values]
        ['param', 'scan', 'param', 'param', 'param', 'mul', 'tag']
        >>> [op.opcode for op in index.loops], [p.name for p in index.tag_points]
        (['scan'], ['auto/scan/0'])
        """
        return self.derived("index", FunctionIndex)

    def add_param(self, type: TensorType, name: Optional[str] = None) -> Value:
        value = Value(type, producer=None, index=len(self.params), name=name)
        self.params.append(value)
        self.input_names.append(name or f"arg{len(self.params) - 1}")
        return value

    def walk(self) -> Iterable[Operation]:
        """All ops, including ops inside regions (pre-order)."""
        for op in self.ops:
            yield op
            for region in op.regions:
                yield from region.walk()

    def num_ops(self, recursive: bool = True) -> int:
        return len(self.index.ops) if recursive else len(self.ops)

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.params)} params, {len(self.ops)} ops>"


class FunctionIndex:
    """The positions everything addresses a function by: value indices
    (``portable_state``, probe digests), tag-point and loop indices
    (action tuples).  Structurally identical functions in two processes
    agree on all of them.

    * ``ops`` -- every op in pre-order, regions included (= ``walk()``);
    * ``values`` -- params, then each op's results followed by its
      regions' values, recursively (a loop's subtree is its results plus
      ``region.index.values``); ``value_ids`` inverts it;
    * ``tag_points`` / ``loops`` -- the ``tag`` / loop ops in walk order.

    The last three are built on first read.
    """

    def __init__(self, function: Function):
        ops: List[Operation] = []
        values: List[Value] = []

        def visit(fn: Function) -> None:
            values.extend(fn.params)
            for op in fn.ops:
                ops.append(op)
                values.extend(op.results)
                for region in op.regions:
                    visit(region)

        visit(function)
        self.ops = ops
        self.values = values

    @functools.cached_property
    def value_ids(self) -> Dict[Value, int]:
        return {value: i for i, value in enumerate(self.values)}

    @functools.cached_property
    def tag_points(self) -> List[TagPoint]:
        tags = [op for op in self.ops if op.opcode == "tag"]
        return [TagPoint.at(i, op) for i, op in enumerate(tags)]

    @functools.cached_property
    def loops(self) -> List[Operation]:
        return [op for op in self.ops if op.opcode in opdefs.LOOP_OPS]


def infer_types(opcode: str, operand_types: Sequence[TensorType],
                attrs: dict, regions: Optional[list] = None) -> list:
    """``opcode``'s result types for ``operand_types`` and ``attrs``, from
    the op's registered inference; any failure is a
    :class:`TypeInferenceError` naming the op."""
    opdef = opdefs.get(opcode)
    try:
        return opdef.infer(operand_types, attrs, regions or [])
    except TypeInferenceError:
        raise
    except Exception as exc:  # surface shape bugs with context
        raise TypeInferenceError(
            f"type inference failed for {opcode} with operand types "
            f"{operand_types} and attrs {attrs}: {exc}"
        ) from exc


class FunctionBuilder:
    """Builds a :class:`Function` by emitting ops with inferred result types."""

    def __init__(self, name: str = "main"):
        self.function = Function(name)

    def param(self, shape, dtype=None, name: Optional[str] = None) -> Value:
        from repro.ir import dtypes

        type = TensorType(tuple(shape), dtype or dtypes.f32)
        return self.function.add_param(type, name)

    def emit(
        self,
        opcode: str,
        operands: Sequence[Value],
        attrs: Optional[dict] = None,
        regions: Optional[list] = None,
    ) -> Operation:
        """Emit one op; result types come from the op's registered inference."""
        attrs = dict(attrs or {})
        result_types = infer_types(opcode, [v.type for v in operands], attrs,
                                   regions)
        op = Operation(opcode, operands, attrs, result_types, regions)
        self.function.ops.append(op)
        return op

    def emit_typed(self, opcode: str, operands: Sequence[Value], attrs: dict,
                   result_types: Sequence[TensorType]) -> Operation:
        """Emit one region-free op whose result types the caller already
        inferred (the lowerer instantiating a recorded emission)."""
        op = Operation(opcode, operands, attrs, result_types)
        self.function.ops.append(op)
        return op

    def emit1(self, opcode, operands, attrs=None, regions=None) -> Value:
        """Emit one op and return its unique result value."""
        return self.emit(opcode, operands, attrs, regions).result

    def ret(self, *values: Value, names: Optional[Sequence[str]] = None) -> Function:
        self.function.results = list(values)
        if names is not None:
            self.function.output_names = list(names)
        else:
            self.function.output_names = [f"out{i}" for i in range(len(values))]
        return self.function
