"""A numpy reference interpreter for the array IR.

Used as the semantic ground truth: partitioned programs executed on the
simulated mesh must agree with this interpreter on the unpartitioned module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import Operation, Value


def evaluate_function(function: Function, args: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Evaluate ``function`` on concrete numpy inputs, returning its results."""
    if len(args) != len(function.params):
        raise ExecutionError(
            f"{function.name} expects {len(function.params)} args, got {len(args)}"
        )
    env: Dict[Value, np.ndarray] = {}
    for param, arg in zip(function.params, args):
        arg = np.asarray(arg, dtype=param.type.dtype.np_dtype)
        if arg.shape != param.type.shape:
            raise ExecutionError(
                f"argument for {param!r} has shape {arg.shape}, "
                f"expected {param.type.shape}"
            )
        env[param] = arg
    for op in function.ops:
        _eval_op(op, env)
    return [env[r] for r in function.results]


#: Safety cap for ``while_loop`` evaluation: a predicate that never turns
#: false is a bug in the traced program, not a reason to hang the tests.
MAX_WHILE_ITERATIONS = 1_000_000


def _eval_op(op: Operation, env: Dict[Value, np.ndarray]) -> None:
    operands = [env[v] for v in op.operands]
    if op.opcode in opdefs.LOOP_OPS:
        results = _eval_loop(op, operands)
    else:
        opdef = opdefs.get(op.opcode)
        if opdef.eval is None:
            raise ExecutionError(f"op {op.opcode} has no evaluator")
        results = opdef.eval(operands, op.attrs)
    if len(results) != len(op.results):
        raise ExecutionError(
            f"{op.opcode} evaluator returned {len(results)} results, "
            f"expected {len(op.results)}"
        )
    for value, array in zip(op.results, results):
        array = np.asarray(array)
        if array.shape != value.type.shape:
            raise ExecutionError(
                f"{op.opcode} produced shape {array.shape}, "
                f"expected {value.type.shape}"
            )
        env[value] = array.astype(value.type.dtype.np_dtype, copy=False)


def _eval_loop(op: Operation, operands: List[np.ndarray]) -> List[np.ndarray]:
    """Evaluate any :data:`repro.ir.opdefs.LOOP_OPS` op.

    ``scan`` and ``fori_loop`` share the counted-loop path (the frontend
    folds ``fori_loop``'s lower bound into the body, so the step index
    always counts from 0).  ``while_loop`` runs its predicate region for
    real each iteration — ``trip_count`` is only a pricing hint.
    """
    body = op.regions[0]
    num_carries = op.attrs.get("num_carries", len(operands))
    carries = list(operands[:num_carries])
    invariants = list(operands[num_carries:])
    index_dtype = body.params[0].type.dtype.np_dtype
    if op.opcode == "while_loop":
        cond = op.regions[1]
        step = 0
        while True:
            index = np.asarray(step, dtype=index_dtype)
            (pred,) = evaluate_function(cond, [index] + carries)
            if not bool(pred):
                break
            if step >= MAX_WHILE_ITERATIONS:
                raise ExecutionError(
                    f"while_loop exceeded {MAX_WHILE_ITERATIONS} iterations"
                )
            carries = evaluate_function(body, [index] + carries + invariants)
            step += 1
        return carries
    for i in range(op.attrs["trip_count"]):
        index = np.asarray(i, dtype=index_dtype)
        carries = evaluate_function(body, [index] + carries + invariants)
    return carries
