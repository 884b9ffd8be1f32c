"""Functions, modules and the builder used by the tracer and the passes."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import TypeInferenceError
from repro.ir import opdefs
from repro.ir.types import TensorType
from repro.ir.values import Operation, Value


class Function:
    """A function: parameters, a flat op list, and result values.

    Also used for op *regions* (e.g. the body of ``scan``), in which case
    ``name`` is conventionally ``"body"``.
    """

    def __init__(self, name: str):
        self.name = name
        self.params: List[Value] = []
        self.ops: List[Operation] = []
        self.results: List[Value] = []
        # Optional metadata: maps user-facing input names to param indices.
        self.input_names: List[str] = []
        self.output_names: List[str] = []

    def __getstate__(self):
        # Underscore attributes are caches some pass derived from the
        # function and attached to it (``_propagation_index``,
        # ``_tag_points``, ``_loop_ops``, ``_pipeline_split``,
        # ``_pipeline_p2p``): rebuilt on demand, a quarter of the bytes of
        # a propagated function, and in part process-local (the
        # propagation index holds canonical interned shardings).  None of
        # them rides a pickle to a search worker or the plan server.
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}

    def add_param(self, type: TensorType, name: Optional[str] = None) -> Value:
        value = Value(type, producer=None, index=len(self.params), name=name)
        self.params.append(value)
        self.input_names.append(name or f"arg{len(self.params) - 1}")
        return value

    def all_values(self) -> Iterable[Value]:
        """All values defined in this function (params then op results)."""
        yield from self.params
        for op in self.ops:
            yield from op.results

    def walk(self) -> Iterable[Operation]:
        """All ops, including ops inside regions (pre-order)."""
        for op in self.ops:
            yield op
            for region in op.regions:
                yield from region.walk()

    def uses(self) -> Dict[Value, List[Operation]]:
        """Map each value to the list of ops that consume it (top level)."""
        result: Dict[Value, List[Operation]] = {}
        for op in self.ops:
            for operand in op.operands:
                result.setdefault(operand, []).append(op)
        return result

    def num_ops(self, recursive: bool = True) -> int:
        return sum(1 for _ in self.walk()) if recursive else len(self.ops)

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.params)} params, {len(self.ops)} ops>"


class Module:
    """A collection of functions; ``main`` is the entry point."""

    def __init__(self, main: Optional[Function] = None):
        self.functions: Dict[str, Function] = {}
        if main is not None:
            self.functions["main"] = main

    @property
    def main(self) -> Function:
        return self.functions["main"]

    def __repr__(self) -> str:
        return f"<Module: {sorted(self.functions)}>"


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
        opdef = opdefs.get(opcode)
        attrs = dict(attrs or {})
        operand_types = [v.type for v in operands]
        try:
            result_types = opdef.infer(operand_types, attrs, regions or [])
        except TypeInferenceError:
            raise
        except Exception as exc:  # surface shape bugs with context
            raise TypeInferenceError(
                f"type inference failed for {opcode} with operand types "
                f"{operand_types} and attrs {attrs}: {exc}"
            ) from exc
        op = Operation(opcode, operands, attrs, result_types, regions)
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
