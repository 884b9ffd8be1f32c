"""SSA values and operations for the array IR.

The IR is a flat SSA list of operations per function (like StableHLO inside a
``func.func``).  A :class:`Value` is either a function parameter or the result
of an :class:`Operation`.  Operations may carry nested *regions* (used by the
``scan`` loop op), represented as :class:`repro.ir.function.Function` objects.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ir.types import TensorType

_value_counter = itertools.count()

_SCALARS = frozenset({str, int, float, bool, type(None)})


def canonical_attr(obj):
    """Canonical, deterministic, hashable rendering of an attr value: equal
    renderings mean interchangeable attrs (dicts and sets are ordered, an
    array is its shape, dtype and a digest of its bytes)."""
    kind = type(obj)
    if kind in _SCALARS:
        return repr(obj)
    if kind is tuple or kind is list:
        for value in obj:
            if type(value) not in _SCALARS:
                return ("seq",) + tuple(map(canonical_attr, obj))
        return ("seq", repr(tuple(obj)))
    if isinstance(obj, dict):
        return ("dict",) + tuple(
            (repr(k), canonical_attr(obj[k])) for k in sorted(obj, key=repr))
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(repr(v) for v in obj))
    if hasattr(obj, "tobytes") and hasattr(obj, "shape"):  # ndarray-like
        # Imported here: loading OpenSSL adds ~4 MB to the resident set of
        # a process that never hashes an array (a manual-only partir_jit).
        import hashlib

        digest = hashlib.blake2b(obj.tobytes(), digest_size=8).hexdigest()
        return ("nd", tuple(obj.shape), obj.dtype.str, digest)
    return repr(obj)


class Value:
    """An SSA value with a static tensor type.

    Identity is a value's equality and its hash (``object``'s, computed in
    C): no two distinct values are interchangeable, and the dicts keyed
    by values (the env's shardings, propagation's adjacency) probe
    without a Python call.  ``uid`` is a stable integer name for printed
    IR and live-range logs, not a hash.

    Attributes:
        type: the value's :class:`TensorType`.
        producer: the defining :class:`Operation`, or ``None`` for function
            parameters.
        index: result index within the producer (0 for parameters).
        name: optional human-readable name used by the printer.
    """

    __slots__ = ("type", "producer", "index", "name", "uid")

    def __init__(
        self,
        type: TensorType,
        producer: Optional["Operation"] = None,
        index: int = 0,
        name: Optional[str] = None,
    ):
        self.type = type
        self.producer = producer
        self.index = index
        self.name = name
        self.uid = next(_value_counter)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.type.shape

    @property
    def dtype(self):
        return self.type.dtype

    def __repr__(self) -> str:
        label = self.name or f"v{self.uid}"
        return f"%{label}: {self.type}"


class Operation:
    """A single IR operation.

    Attributes:
        opcode: registered op name, e.g. ``"dot_general"``.
        operands: SSA operands.
        attrs: static attributes (shapes, dimension numbers, ...).
        results: result values (producer back-links set on construction).
        regions: nested function bodies (``scan`` has one).
    """

    # Derived caches, both pure functions of the op's structure (frozen
    # after construction) and both process-local:
    # _sharding_rule caches repro.core.rules.rule_for(op), a reference to
    # the process-wide shared rule for the op's factor table; _op_class
    # caches repro.spmd.lower.op_class(op), the interned id of the op's
    # structural class that keys its lowering plans.
    __slots__ = ("opcode", "operands", "attrs", "results", "regions",
                 "_sharding_rule", "_op_class")

    def __init__(
        self,
        opcode: str,
        operands: Sequence[Value],
        attrs: Optional[Dict[str, Any]] = None,
        result_types: Sequence[TensorType] = (),
        regions: Optional[List[Any]] = None,
    ):
        self.opcode = opcode
        self.operands = list(operands)
        self.attrs = dict(attrs or {})
        self.regions = list(regions or [])
        self.results = [
            Value(t, producer=self, index=i) for i, t in enumerate(result_types)
        ]

    def __getstate__(self):
        # The cached sharding rule and structural class are derived state:
        # re-resolved on demand (to the receiving process's shared rule and
        # interned class ids), never shipped.
        return (self.opcode, self.operands, self.attrs, self.results,
                self.regions)

    def __setstate__(self, state):
        (self.opcode, self.operands, self.attrs, self.results,
         self.regions) = state

    @property
    def result(self) -> Value:
        """The unique result (raises if the op has several)."""
        if len(self.results) != 1:
            raise ValueError(
                f"op {self.opcode} has {len(self.results)} results, expected 1"
            )
        return self.results[0]

    def __repr__(self) -> str:
        outs = ", ".join(repr(r) for r in self.results)
        ins = ", ".join(f"%{o.name or 'v%d' % o.uid}" for o in self.operands)
        return f"{outs} = {self.opcode}({ins})"
