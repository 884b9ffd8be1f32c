"""The simulated device mesh: executes device-local SPMD programs on CPU.

This is the repository's substitute for TPU/GPU hardware.  Every device is a
slot in a lockstep interpreter; collectives are implemented *for real*
(slicing, concatenation, reduction across the simulated devices), so a
partitioned program's outputs can be compared bit-for-bit against the
unpartitioned reference interpreter — the executable analogue of the paper's
Appendix C correctness theorem.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.ir import interpreter, opdefs
from repro.ir.function import Function
from repro.ir.values import Operation, Value
from repro.mesh import Mesh
from repro.spmd.lower import LoweredModule

Coord = Tuple[int, ...]


def _block_index(coord: Dict[str, int], axes: Sequence[str],
                 mesh: Mesh) -> int:
    """Block index of a device within a dim tiled by ``axes`` (outer first)."""
    index = 0
    for axis in axes:
        index = index * mesh.size(axis) + coord[axis]
    return index


def shard_array(array: np.ndarray, dim_axes, mesh: Mesh,
                coord: Dict[str, int]) -> np.ndarray:
    """Extract this device's chunk of a global array."""
    out = array
    for d, axes in enumerate(dim_axes):
        if not axes:
            continue
        n = mesh.group_size(axes)
        if out.shape[d] % n:
            raise ExecutionError(
                f"dim {d} of size {out.shape[d]} not divisible by {n}"
            )
        block = out.shape[d] // n
        idx = _block_index(coord, axes, mesh)
        slicer = [slice(None)] * out.ndim
        slicer[d] = slice(idx * block, (idx + 1) * block)
        out = out[tuple(slicer)]
    # Not ``ascontiguousarray``: it returns at least 1-d, so a 0-d
    # parameter's chunk would come back with shape (1,).
    return np.require(out, requirements="C")


def unshard_arrays(chunks: List[np.ndarray], dim_axes, mesh: Mesh,
                   coords: List[Dict[str, int]],
                   check_replicas: bool = True) -> np.ndarray:
    """Reassemble a global array from per-device chunks."""
    local_shape = chunks[0].shape
    global_shape = list(local_shape)
    for d, axes in enumerate(dim_axes):
        global_shape[d] *= mesh.group_size(axes)
    out = np.zeros(tuple(global_shape), dtype=chunks[0].dtype)
    written: Dict[Tuple, np.ndarray] = {}
    for chunk, coord in zip(chunks, coords):
        slicer = []
        for d, axes in enumerate(dim_axes):
            block = local_shape[d]
            idx = _block_index(coord, axes, mesh)
            slicer.append(slice(idx * block, (idx + 1) * block))
        key = tuple((s.start, s.stop) for s in slicer)
        if check_replicas and key in written:
            if not np.allclose(written[key], chunk, rtol=1e-4, atol=1e-4):
                raise ExecutionError(
                    "replicated chunks disagree across devices"
                )
        else:
            written[key] = chunk
        out[tuple(slicer)] = chunk
    return out


class MeshExecutor:
    """Runs a :class:`LoweredModule` on the simulated mesh.

    Call with *global* (unsharded) inputs; inputs are sharded per the
    module's input shardings, executed lockstep across all devices, and
    outputs reassembled per the output shardings.
    """

    def __init__(self, lowered: LoweredModule):
        self.lowered = lowered
        self.mesh = lowered.mesh
        self.coords: List[Dict[str, int]] = list(self.mesh.device_coords())
        self.n = len(self.coords)
        # Peak device-local live bytes observed during the last call (the
        # "measured" side of the paper's Figure 10 memory comparison).
        self.measured_peak_bytes = 0

    # -- public ---------------------------------------------------------------

    def __call__(self, *global_args: np.ndarray) -> List[np.ndarray]:
        function = self.lowered.function
        if len(global_args) != len(function.params):
            raise ExecutionError(
                f"expected {len(function.params)} args, got {len(global_args)}"
            )
        envs: List[Dict[Value, np.ndarray]] = [dict() for _ in range(self.n)]
        for i, (param, arg) in enumerate(zip(function.params, global_args)):
            sharding = self.lowered.input_shardings[i]
            arg = np.asarray(arg, dtype=param.type.dtype.np_dtype)
            for dev, coord in enumerate(self.coords):
                chunk = shard_array(arg, sharding.dim_axes, self.mesh, coord)
                if chunk.shape != param.type.shape:
                    raise ExecutionError(
                        f"arg {i}: local chunk {chunk.shape} != param type "
                        f"{param.type.shape}"
                    )
                envs[dev][param] = chunk
        self._run(function, envs)
        outputs = []
        for r, result in enumerate(function.results):
            sharding = self.lowered.output_shardings[r]
            chunks = [envs[dev][result] for dev in range(self.n)]
            outputs.append(
                unshard_arrays(chunks, sharding.dim_axes, self.mesh,
                               self.coords)
            )
        return outputs

    # -- lockstep execution --------------------------------------------------------

    def _run(self, function: Function,
             envs: List[Dict[Value, np.ndarray]]) -> None:
        last_use: Dict[Value, int] = {}
        for index, op in enumerate(function.ops):
            for operand in op.operands:
                last_use[operand] = index
        keep = set(function.results)
        for index, op in enumerate(function.ops):
            self._step(op, envs)
            self.measured_peak_bytes = max(
                self.measured_peak_bytes,
                sum(a.nbytes for a in envs[0].values()),
            )
            for operand in set(op.operands):
                if last_use.get(operand, -1) <= index and operand not in keep:
                    for env in envs:
                        env.pop(operand, None)

    def _step(self, op: Operation,
              envs: List[Dict[Value, np.ndarray]]) -> None:
        if op.opcode in opdefs.LOOP_OPS:
            self._run_loop(op, envs)
        elif op.opcode in _COLLECTIVES:
            _COLLECTIVES[op.opcode](self, op, envs)
        else:
            opdef = opdefs.get(op.opcode)
            for env in envs:
                operands = [env[v] for v in op.operands]
                results = opdef.eval(operands, op.attrs)
                for value, array in zip(op.results, results):
                    env[value] = np.asarray(array).astype(
                        value.type.dtype.np_dtype, copy=False
                    )

    def _run_loop(self, op: Operation,
                  envs: List[Dict[Value, np.ndarray]]) -> None:
        """Execute any loop op (scan / fori_loop / while_loop) in lockstep.

        ``while_loop`` evaluates its (replicated) predicate region each
        iteration and follows device 0's verdict — the cond is reconciled
        replicated at lowering, so all devices agree — capped like the
        interpreter's (:data:`~repro.ir.interpreter.MAX_WHILE_ITERATIONS`).
        """
        body = op.regions[0]
        num_carries = op.attrs.get("num_carries", len(op.operands))
        carries = [
            [env[v] for v in op.operands[:num_carries]] for env in envs
        ]
        invariants = [
            [env[v] for v in op.operands[num_carries:]] for env in envs
        ]
        index_dtype = body.params[0].type.dtype.np_dtype
        is_while = op.opcode == "while_loop"
        step = 0
        while True:
            if is_while:
                cond = op.regions[1]
                cond_envs: List[Dict[Value, np.ndarray]] = []
                for dev in range(self.n):
                    env = {cond.params[0]: np.asarray(step, dtype=index_dtype)}
                    for i, array in enumerate(carries[dev]):
                        env[cond.params[i + 1]] = array
                    cond_envs.append(env)
                self._run(cond, cond_envs)
                if not bool(cond_envs[0][cond.results[0]]):
                    break
                if step >= interpreter.MAX_WHILE_ITERATIONS:
                    raise ExecutionError(
                        f"while_loop exceeded "
                        f"{interpreter.MAX_WHILE_ITERATIONS} iterations"
                    )
            elif step >= op.attrs["trip_count"]:
                break
            body_envs: List[Dict[Value, np.ndarray]] = []
            for dev in range(self.n):
                env: Dict[Value, np.ndarray] = {
                    body.params[0]: np.asarray(step, dtype=index_dtype)
                }
                for i, array in enumerate(carries[dev] + invariants[dev]):
                    env[body.params[i + 1]] = array
                body_envs.append(env)
            self._run(body, body_envs)
            carries = [
                [body_envs[dev][r] for r in body.results]
                for dev in range(self.n)
            ]
            step += 1
        for dev in range(self.n):
            for value, carry in zip(op.results, carries[dev]):
                envs[dev][value] = carry

    # -- collectives ------------------------------------------------------------

    def _groups(self, axes: Sequence[str]) -> List[List[int]]:
        """Partition devices into groups that vary only along ``axes``."""
        axes = set(axes)
        fixed = [a for a in self.mesh.axis_names if a not in axes]
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for dev, coord in enumerate(self.coords):
            key = tuple(coord[a] for a in fixed)
            groups.setdefault(key, []).append(dev)
        return list(groups.values())

    def _all_reduce(self, op, envs):
        axes = op.attrs["axes"]
        kind = op.attrs.get("kind", "add")
        operand = op.operands[0]
        for group in self._groups(axes):
            arrays = [envs[dev][operand] for dev in group]
            total = (np.maximum.reduce(arrays) if kind == "max"
                     else np.add.reduce(arrays))
            for dev in group:
                envs[dev][op.results[0]] = total.astype(arrays[0].dtype)

    def _all_gather(self, op, envs):
        operand = op.operands[0]
        gathered_axes = [a for axes in op.attrs["dims"] for a in axes]
        operand_dims = op.attrs["operand_dims"]
        result_dims = op.attrs["result_dims"]
        out_shape = op.results[0].type.shape
        for group in self._groups(gathered_axes):
            assembled = np.zeros(out_shape,
                                 dtype=envs[group[0]][operand].dtype)
            for dev in group:
                chunk = envs[dev][operand]
                slicer = []
                for d in range(chunk.ndim):
                    extra = list(operand_dims[d][len(result_dims[d]):])
                    idx = _block_index(self.coords[dev], extra, self.mesh)
                    block = chunk.shape[d]
                    slicer.append(slice(idx * block, (idx + 1) * block))
                assembled[tuple(slicer)] = chunk
            for dev in group:
                envs[dev][op.results[0]] = assembled

    def _all_slice(self, op, envs):
        operand = op.operands[0]
        operand_dims = op.attrs["operand_dims"]
        result_dims = op.attrs["result_dims"]
        for dev in range(self.n):
            chunk = envs[dev][operand]
            coord = self.coords[dev]
            slicer = []
            for d in range(chunk.ndim):
                extra = list(result_dims[d][len(operand_dims[d]):])
                n = self.mesh.group_size(extra)
                block = chunk.shape[d] // n
                idx = _block_index(coord, extra, self.mesh)
                slicer.append(slice(idx * block, (idx + 1) * block))
            envs[dev][op.results[0]] = np.ascontiguousarray(
                chunk[tuple(slicer)]
            )

    def _reduce_scatter(self, op, envs):
        axes = [a for axes in op.attrs["dims"] for a in axes]
        kind = op.attrs.get("kind", "add")
        operand = op.operands[0]
        operand_dims = op.attrs["operand_dims"]
        result_dims = op.attrs["result_dims"]
        for group in self._groups(axes):
            arrays = [envs[dev][operand] for dev in group]
            total = (np.maximum.reduce(arrays) if kind == "max"
                     else np.add.reduce(arrays))
            for dev in group:
                coord = self.coords[dev]
                slicer = []
                for d in range(total.ndim):
                    extra = list(result_dims[d][len(operand_dims[d]):])
                    n = self.mesh.group_size(extra)
                    block = total.shape[d] // n
                    idx = _block_index(coord, extra, self.mesh)
                    slicer.append(slice(idx * block, (idx + 1) * block))
                envs[dev][op.results[0]] = np.ascontiguousarray(
                    total[tuple(slicer)].astype(arrays[0].dtype)
                )

    def _all_to_all(self, op, envs):
        operand = op.operands[0]
        axes = list(op.attrs["axes"])
        gather_dim = op.attrs["gather_dim"]
        slice_dim = op.attrs["slice_dim"]
        factor = self.mesh.group_size(axes)
        for group in self._groups(axes):
            first = envs[group[0]][operand]
            full_shape = list(first.shape)
            full_shape[gather_dim] *= factor
            assembled = np.zeros(tuple(full_shape), dtype=first.dtype)
            for dev in group:
                chunk = envs[dev][operand]
                idx = _block_index(self.coords[dev], axes, self.mesh)
                block = chunk.shape[gather_dim]
                slicer = [slice(None)] * chunk.ndim
                slicer[gather_dim] = slice(idx * block, (idx + 1) * block)
                assembled[tuple(slicer)] = chunk
            for dev in group:
                idx = _block_index(self.coords[dev], axes, self.mesh)
                block = assembled.shape[slice_dim] // factor
                slicer = [slice(None)] * assembled.ndim
                slicer[slice_dim] = slice(idx * block, (idx + 1) * block)
                envs[dev][op.results[0]] = np.ascontiguousarray(
                    assembled[tuple(slicer)]
                )


_COLLECTIVES = {
    "all_reduce": MeshExecutor._all_reduce,
    "all_gather": MeshExecutor._all_gather,
    "all_slice": MeshExecutor._all_slice,
    "reduce_scatter": MeshExecutor._reduce_scatter,
    "all_to_all": MeshExecutor._all_to_all,
}
