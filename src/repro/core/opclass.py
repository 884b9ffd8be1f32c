"""One structural class per op, shared by propagation, lowering and pricing.

A propagation visit is decided once per (class, adjacent shardings), a
lowering plan built once per (class, adjacent sharding iids) and a
pricing template once per plan-table key: :func:`op_class` is the one
answer to "what is this op, structurally", an interned :class:`OpClass`
keyed on the opcode, the rendered attrs without identity labels
(:data:`COST_IRRELEVANT_ATTRS`) and the operand and result types
(interned, so they hash by identity).  A rule builder that reads past
attrs and types adds what it reads (:data:`repro.core.rules.RULE_CONTEXT`:
``scatter_add``'s rule reads whether its operand is zeros).  The class
holds the op's adjacent shapes and its sharding rule: the compiled
factor table (the paper's TMR, Section 5.2), which
:mod:`repro.core.rules` shares among every class with the same factors,
adjacent ranks and arity.  The rule is not in the key but a function of
it, looked up once per class, when the class is first seen.  The class
is cached on the op, dropped when the op is pickled and re-interned on
first use.  Two identical layers share their matmuls'
class, and their tags share one whatever their names (lowering emits
each op's own):

>>> from repro import ShapeDtype, trace
>>> from repro.trace import ops
>>> spec = ShapeDtype((8, 8))
>>> def layers(x, w1, w2):
...     h = ops.tag(ops.tanh(x @ w1), "layer1")
...     return ops.tag(ops.tanh(h @ w2), "layer2")
>>> function = trace(layers, spec, spec, spec, tag_points=False).function
>>> dot1, _, tag1, dot2, _, tag2 = function.ops
>>> op_class(dot1) is op_class(dot2), op_class(tag1) is op_class(tag2)
(True, True)
>>> tag1.attrs, tag2.attrs
({'name': 'layer1'}, {'name': 'layer2'})

Which adjacent positions hold the same value is a fact of the op's
values, not of its class: ``x * x`` and ``x * y`` share one class, and so
one lowering plan and one pricing template per adjacent shardings.
Propagation, the one pass that reads the pattern, keeps it in its
per-function index (:mod:`repro.core.propagate`):

>>> square, product = trace(lambda x, y: (x * x, x * y), spec, spec,
...                         tag_points=False).function.ops
>>> op_class(square) is op_class(product)
True
"""

from __future__ import annotations

import operator
from typing import Dict

from repro.core import rules as rules_mod
from repro.ir.values import Operation, canonical_attr

#: Identity labels per opcode, stripped before an op is classed or
#: hashed: they change no propagation, lowering or cost.
COST_IRRELEVANT_ATTRS = {"tag": frozenset({"name", "auto"})}

#: A constant whose payload is larger than this gets a class of its own,
#: not interned: its key would keep a copy of the payload.
_KEYED_PAYLOAD_BYTES = 256

#: The rendering of an op without attrs (``canonical_attr({})``).
_NO_ATTRS = canonical_attr({})
_TYPE = operator.attrgetter("type")


def structural_attrs(op: Operation) -> dict:
    """``op``'s attrs without its identity attrs (``op.attrs`` itself for
    an op that has none)."""
    drop = COST_IRRELEVANT_ATTRS.get(op.opcode)
    if not drop:
        return op.attrs
    return {key: v for key, v in op.attrs.items() if key not in drop}


class OpClass:
    """Everything a visit, a plan or a template reads about an op besides
    its values, their shardings and the mesh.  One instance per key,
    compared by identity.  Adjacent values are numbered operands first,
    then results: ``k`` below."""

    __slots__ = ("rule", "shapes")

    def __init__(self, op: Operation):
        #: The op's compiled factor table, shared by every class with the
        #: same factors, ranks and arity (:mod:`repro.core.rules`).
        self.rule = rules_mod.build_rule(op)
        #: ``shapes[k]``: the shape of adjacent value ``k``.
        self.shapes = tuple([value.type.shape
                             for value in (*op.operands, *op.results)])


#: The structural key (module docstring) -> the shared class.
#: Process-local (classes hold shardings): never pickled.
_CLASSES: Dict[tuple, OpClass] = {}


def op_class(op: Operation) -> OpClass:
    """``op``'s structural class, cached on the op.  A constant's payload
    enters the key by its bytes (traced constants are scalars; hashing
    would cost more than planning).  A constant past
    ``_KEYED_PAYLOAD_BYTES`` and a loop op (no key renders its regions)
    get a class of their own, not interned.  The sharding rule is looked
    up only when a class is first seen."""
    cls = op._op_class
    if cls is not None:
        return cls
    opcode = op.opcode
    if opcode == "constant":
        attrs = dict(op.attrs)
        payload = attrs.pop("value")
        rendered = (None if payload.nbytes > _KEYED_PAYLOAD_BYTES
                    else (payload.tobytes(), canonical_attr(attrs)))
    elif op.regions:
        rendered = None
    elif not op.attrs:
        rendered = _NO_ATTRS
    else:
        rendered = canonical_attr(structural_attrs(op))
    if rendered is None:
        cls = OpClass(op)
    else:
        key = (opcode, rendered, tuple(map(_TYPE, op.operands)),
               tuple(map(_TYPE, op.results)))
        context = rules_mod.RULE_CONTEXT.get(opcode)
        if context is not None:
            key += (context(op),)
        cls = _CLASSES.get(key)
        if cls is None:
            cls = _CLASSES.setdefault(key, OpClass(op))
    op._op_class = cls
    return cls


def rule_for(op: Operation) -> rules_mod.OpShardingRule:
    """``op``'s compiled factor table, held by its class."""
    return op_class(op).rule
