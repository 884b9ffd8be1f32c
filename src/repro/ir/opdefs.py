"""The operation registry.

Every opcode registers an :class:`OpDef` carrying:

* ``infer``: result-type inference from operand types + attrs (+ regions),
* ``eval``: numpy evaluation used by the reference interpreter and the
  simulated-mesh executor (region ops like ``scan`` are interpreted by the
  interpreter itself and may leave ``eval`` unset),
* ``flops``: an optional FLOP estimate used by the performance simulator.

Sharding rules (the PartIR tile-mapping registry) and autodiff VJP rules are
registered in separate tables (``repro.core.rules`` and
``repro.trace.autodiff``) so that the base IR stays independent of the
partitioner and the tracer.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.ir.types import TensorType

InferFn = Callable[[Sequence[TensorType], dict, list], List[TensorType]]
EvalFn = Callable[[Sequence], List]
FlopsFn = Callable[[Sequence[TensorType], dict], float]


@dataclasses.dataclass
class OpDef:
    name: str
    infer: InferFn
    eval: Optional[Callable] = None
    flops: Optional[FlopsFn] = None
    # Pure elementwise ops map each output element from the same index of
    # every operand; used to auto-generate sharding rules and VJP plumbing.
    elementwise: bool = False
    # Linear ops commute with summation over a pending mesh axis: the
    # propagation pass may defer an all_reduce through them (Section 5/6).
    linear: bool = False
    # Does this op have nested regions (e.g. scan)?
    has_regions: bool = False


#: The counted/conditional loop family.  All three share the scan calling
#: convention — region 0 is the body ``(step, *carries, *invariants) ->
#: carries``, attrs carry ``trip_count``/``num_carries`` — so every consumer
#: that walks, prices, propagates through or executes a loop region handles
#: them with one code path.  ``while_loop`` adds a second region (the
#: predicate ``(step, *carries) -> pred``); its ``trip_count`` attr is the
#: *pricing hint* used by the cost model and collective counters.
LOOP_OPS = frozenset({"scan", "fori_loop", "while_loop"})

_REGISTRY: Dict[str, OpDef] = {}


def register(opdef: OpDef) -> OpDef:
    if opdef.name in _REGISTRY:
        raise ValueError(f"op {opdef.name!r} registered twice")
    _REGISTRY[opdef.name] = opdef
    return opdef


def get(name: str) -> OpDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown op {name!r}; known: {sorted(_REGISTRY)}")


def is_registered(name: str) -> bool:
    return name in _REGISTRY
