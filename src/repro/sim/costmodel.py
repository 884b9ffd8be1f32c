"""The analytical cost model / simulator (Appendix A.3).

"Our simulator iterates over each SPMD context, tracks the live memory, and
counts flops usage; for the communication ops it also tracks the byte
transfers" — this module does exactly that over device-local programs:

* compute time  = local FLOPs / (peak FLOPs x efficiency),
* collective time from standard ring-style byte costs over the mesh axes the
  collective spans,
* step time = max(compute, comm) when overlap is assumed (plus per-collective
  launch latencies),
* peak memory from live-range analysis (:mod:`repro.sim.memory`).

One reference and one fast path produce identical numbers:

* :func:`estimate` — the reference — walks a materialized, fused
  device-local :class:`~repro.ir.function.Function` (the
  ``lower -> fuse_collectives -> estimate`` pipeline ``partir_jit`` runs
  anyway, since the executor needs real IR), and
* :meth:`StreamingEstimator.estimate_incremental` — the fast path the
  automatic-partitioning search uses — prices the lowering *stream*
  without ever allocating IR: per-op lowering plans and whole
  reconcile-chain costs are memoized on sharding signatures, and an
  evaluation of a mutated env re-resolves only the ops whose neighborhood
  changed.  A fresh estimator (or ``changed_values=None``) rebuilds the
  whole function, which is what :func:`estimate_streaming` does.
  :class:`CostSink` prices loop bodies and records reconcile chains for it,
  fusing collectives peephole-style as they are emitted.

Absolute numbers are not calibrated against real hardware (the paper makes
the same disclaimer); *relative* comparisons between schedules are the
product.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.core import pipeline as pipeline_mod
from repro.core.sharding import Sharding, intern_sharding, sharding_from_iid
from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.types import TensorType
from repro.mesh import Mesh
from repro.sim.devices import DeviceSpec
from repro.sim import memory as memory_mod
from repro.sim.memory import LiveRangeLog, PeakSegmentTree, peak_live_bytes
from repro.spmd.collectives import is_collective
from repro.spmd.fusion import single_axis_move
from repro.spmd.lower import LoweredModule, Lowerer

# Fraction of peak FLOPs dense ops actually achieve; keeps MFU in the
# realistic 40-60% band the paper reports instead of an idealised 100%.
_COMPUTE_EFFICIENCY = 0.62


@dataclasses.dataclass
class CostEstimate:
    """Simulator output for one partitioned program."""

    runtime_s: float
    compute_s: float
    comm_s: float
    local_flops: float
    comm_bytes: float
    peak_memory_bytes: float
    collective_time_s: Dict[str, float]


class ExactSum:
    """Error-free float accumulator (Shewchuk partials, ``msum`` style).

    ``add`` maintains a list of non-overlapping partials whose real-number
    sum is *exactly* the sum of everything added so far; ``value`` rounds
    that exact sum once with :func:`math.fsum`.  Two consequences the cost
    model builds on:

    * the reported value is independent of the order terms were added in
      (it is the correctly-rounded true sum), and
    * adding ``-x`` after ``x`` removes the term *exactly* — a
      subtract-old/add-new differential update lands on the bit-identical
      value a fresh left-to-right accumulation of the surviving terms'
      correctly-rounded sum would produce.

    Zero terms are skipped (they cannot change the exact sum), so a term
    multiset and its nonzero subset are indistinguishable.
    """

    __slots__ = ("partials",)

    def __init__(self):
        self.partials: List[float] = []

    def add(self, x: float) -> None:
        if x == 0.0:
            return
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if x != 0.0:
            partials[i:] = [x]
        else:
            del partials[i:]

    def value(self) -> float:
        return math.fsum(self.partials)


class _CostAcc:
    """The cost model's accumulator: one :class:`ExactSum` per estimate
    field plus per-collective-opcode ``[ExactSum, count]`` cells.

    The ``count`` tracks dict-key *presence* separately from the summed
    seconds: an ``all_slice`` contributes a 0.0 term (skipped by the
    ExactSum) but must still create its ``collective_time_s`` key, and a
    differential removal must delete the key exactly when the last
    contributing op goes away.

    Every evaluation path — materialized, streaming, differential — feeds
    the *same term multiset* through this class, which is what makes their
    outputs bit-identical.
    """

    __slots__ = ("denom", "flops", "compute_s", "comm_bytes", "comm_s",
                 "coll")

    def __init__(self, denom: float):
        self.denom = denom  # device.peak_flops * _COMPUTE_EFFICIENCY
        self.flops = ExactSum()
        self.compute_s = ExactSum()
        self.comm_bytes = ExactSum()
        self.comm_s = ExactSum()
        self.coll: Dict[str, list] = {}

    def add_op_cost(self, flops: float) -> None:
        self.flops.add(flops)
        self.compute_s.add(flops / self.denom)

    def add_coll_cost(self, opcode: str, bytes_moved: float,
                      seconds: float) -> None:
        self.comm_bytes.add(bytes_moved)
        self.comm_s.add(seconds)
        cell = self.coll.get(opcode)
        if cell is None:
            cell = self.coll[opcode] = [ExactSum(), 0]
        cell[0].add(seconds)
        cell[1] += 1

    def apply(self, terms, sign: float, isign: int) -> None:
        """Apply a flattened cost bundle (the differential path's per-unit
        term list) with ``sign`` +1.0/-1.0; ``isign`` adjusts the
        per-opcode presence counts."""
        coll = self.coll
        for term in terms:
            kind = term[0]
            if kind == "fl":
                self.flops.add(sign * term[1])
            elif kind == "cp":
                self.compute_s.add(sign * term[1])
            elif kind == "cb":
                self.comm_bytes.add(sign * term[1])
            elif kind == "cs":
                self.comm_s.add(sign * term[1])
            else:  # ("co", opcode, seconds)
                cell = coll.get(term[1])
                if cell is None:
                    cell = coll[term[1]] = [ExactSum(), 0]
                cell[0].add(sign * term[2])
                cell[1] += isign

    def estimate(self) -> CostEstimate:
        """Finalize into a :class:`CostEstimate` (runtime and peak are the
        caller's to fill in)."""
        coll = {
            opcode: cell[0].value()
            for opcode, cell in self.coll.items() if cell[1] > 0
        }
        return CostEstimate(0.0, self.compute_s.value(), self.comm_s.value(),
                            self.flops.value(), self.comm_bytes.value(),
                            0.0, coll)


def collective_cost(opcode: str, attrs: dict, operand_bytes: float,
                    result_bytes: float, mesh: Mesh,
                    device: DeviceSpec) -> Tuple[float, float]:
    """(bytes_on_wire, seconds) for one collective, from sizes + attrs."""
    if opcode == "all_reduce":
        axes = attrs["axes"]
        n = mesh.group_size(axes)
        bytes_moved = 2.0 * operand_bytes * (n - 1) / max(n, 1)
    elif opcode == "all_gather":
        axes = [a for dim_axes in attrs["dims"] for a in dim_axes]
        n = mesh.group_size(axes)
        bytes_moved = result_bytes * (n - 1) / max(n, 1)
    elif opcode == "reduce_scatter":
        axes = [a for dim_axes in attrs["dims"] for a in dim_axes]
        n = mesh.group_size(axes)
        bytes_moved = operand_bytes * (n - 1) / max(n, 1)
    elif opcode == "all_to_all":
        axes = attrs["axes"]
        n = mesh.group_size(axes)
        bytes_moved = operand_bytes * (n - 1) / max(n, 1)
    elif opcode == "all_slice":
        return 0.0, 0.0  # device-local
    else:
        raise ValueError(f"not a collective: {opcode}")
    seconds = bytes_moved / device.link_bandwidth + device.collective_latency
    return bytes_moved, seconds


def _collective_cost(op, mesh: Mesh, device: DeviceSpec):
    """(bytes_on_wire, seconds) for one collective op."""
    return collective_cost(
        op.opcode, op.attrs, op.operands[0].type.nbytes,
        op.results[0].type.nbytes, mesh, device,
    )


def loop_cost_terms(attrs: dict, body: CostEstimate, device: DeviceSpec,
                    cond: Optional[CostEstimate] = None) -> list:
    """The flattened cost-term bundle of one loop op, from its region
    estimates — the single pricing formula every evaluation path
    (materialized, streaming, differential) feeds through
    :meth:`_CostAcc.apply`, which is what keeps them bit-identical.

    Terms are ``("fl", flops)`` / ``("cp", compute_s)`` /
    ``("cb", comm_bytes)`` / ``("cs", comm_s)`` /
    ``("co", opcode, seconds)``.

    Unpipelined, the body simply runs ``trip_count`` times: one term per
    field, scaled by the trip count.  With ``pipeline_*`` attrs present
    (see :func:`repro.core.pipeline.pipeline_schedule_attrs`), the body is
    split into ``K = pipeline_stages`` stages over a mesh axis and the
    ``T = trip_count`` iterations stream through as microbatches:

    * per-device FLOPs shrink to the heaviest stage's share ``f``
      (``pipeline_stage_fraction``) — ``T`` microbatches of ``f x`` body
      work actually execute on the critical device;
    * compute *time* pays the schedule bubble: the critical stage is busy
      for ``T + K - 1`` slots of ``f x`` body compute (the classic
      GPipe/1F1B bubble fraction ``(K-1)/(T+K-1)``);
    * collectives inside the body (spanning the other mesh axes) still run
      once per microbatch — unchanged ``x T`` terms;
    * stage hand-offs add point-to-point transfers:
      ``pipeline_p2p_bytes x T`` bytes on the wire, paying link bandwidth
      plus one launch latency per boundary crossing (``(K-1) x T``),
      reported under the pseudo-collective key ``"pipeline_p2p"``.

    ``cond`` is a ``while_loop``'s condition-region estimate: it runs once
    per iteration on every device (lockstep), so its terms ride unpipelined
    at ``x T`` regardless of schedule.
    """
    trips = attrs["trip_count"]
    stages = attrs.get("pipeline_stages")
    if not stages:
        terms = [
            ("fl", body.local_flops * trips),
            ("cp", body.compute_s * trips),
            ("cb", body.comm_bytes * trips),
            ("cs", body.comm_s * trips),
        ]
        for opcode, seconds in body.collective_time_s.items():
            terms.append(("co", opcode, seconds * trips))
    else:
        fraction = attrs["pipeline_stage_fraction"]
        slots = trips + stages - 1
        terms = [
            ("fl", body.local_flops * fraction * trips),
            ("cp", body.compute_s * fraction * slots),
            ("cb", body.comm_bytes * trips),
            ("cs", body.comm_s * trips),
        ]
        for opcode, seconds in body.collective_time_s.items():
            terms.append(("co", opcode, seconds * trips))
        moved = float(attrs["pipeline_p2p_bytes"]) * trips
        seconds = (moved / device.link_bandwidth
                   + (stages - 1) * trips * device.collective_latency)
        terms.append(("cb", moved))
        terms.append(("cs", seconds))
        terms.append(("co", "pipeline_p2p", seconds))
    if cond is not None:
        terms.append(("fl", cond.local_flops * trips))
        terms.append(("cp", cond.compute_s * trips))
        terms.append(("cb", cond.comm_bytes * trips))
        terms.append(("cs", cond.comm_s * trips))
        for opcode, seconds in cond.collective_time_s.items():
            terms.append(("co", opcode, seconds * trips))
    return terms


def _estimate_function(function: Function, mesh: Mesh,
                       device: DeviceSpec) -> CostEstimate:
    acc = _CostAcc(device.peak_flops * _COMPUTE_EFFICIENCY)
    for op in function.ops:
        if op.opcode in opdefs.LOOP_OPS:
            inner = _estimate_function(op.regions[0], mesh, device)
            cond = (_estimate_function(op.regions[1], mesh, device)
                    if len(op.regions) > 1 else None)
            acc.apply(loop_cost_terms(op.attrs, inner, device, cond),
                      1.0, 1)
            continue
        if is_collective(op.opcode):
            bytes_moved, seconds = _collective_cost(op, mesh, device)
            acc.add_coll_cost(op.opcode, bytes_moved, seconds)
            continue
        opdef = opdefs.get(op.opcode)
        flops = opdef.flops([v.type for v in op.operands], op.attrs) \
            if opdef.flops else 0.0
        acc.add_op_cost(flops)
    return acc.estimate()


def estimate(lowered: LoweredModule, device: DeviceSpec,
             overlap: bool = True) -> CostEstimate:
    """Estimate one step of the partitioned program on ``device``."""
    result = _estimate_function(lowered.function, lowered.mesh, device)
    if overlap:
        result.runtime_s = max(result.compute_s, result.comm_s)
    else:
        result.runtime_s = result.compute_s + result.comm_s
    result.peak_memory_bytes = peak_live_bytes(lowered.function)
    return result


def search_objective(estimate: CostEstimate, device: DeviceSpec) -> float:
    """Scalar objective the automatic-partitioning search minimizes.

    Estimated runtime, with a hard multiplicative penalty once the program's
    peak memory exceeds the device's HBM — an out-of-memory partitioning can
    never win on a runtime tie-break.
    """
    cost = estimate.runtime_s
    if estimate.peak_memory_bytes > device.hbm_bytes:
        cost *= 1e3 * (estimate.peak_memory_bytes / device.hbm_bytes)
    return cost


def objective_lower_bound(estimate: CostEstimate, device: DeviceSpec,
                          free_parallelism: float) -> float:
    """Admissible lower bound on :func:`search_objective` over every
    *extension* of the partitioning ``estimate`` was computed for.

    ``free_parallelism`` is the product of the sizes of the mesh axes the
    current action set has not introduced yet.  Any further action tiles
    values along those axes only, and a mesh axis divides an op's local
    FLOPs (and a tensor's local bytes) at most once — so no extension can
    shrink the per-device compute term or the peak-memory term below the
    current value divided by ``free_parallelism``.  Communication is
    bounded below by zero and ``runtime >= compute`` under the overlap
    model, while the out-of-memory penalty of :func:`search_objective` is
    monotone in peak memory — evaluating it at the shrunken peak keeps
    the bound admissible.  The branch-and-bound solver
    (:mod:`repro.auto.exact`) prunes a subtree when this bound already
    meets the incumbent.
    """
    free = max(float(free_parallelism), 1.0)
    bound = estimate.compute_s / free
    peak = estimate.peak_memory_bytes / free
    if peak > device.hbm_bytes:
        bound *= 1e3 * (peak / device.hbm_bytes)
    return bound


# -- streaming cost evaluation ---------------------------------------------------


class _StreamValue:
    """A lowered value in the cost stream: a type and a uid, nothing else."""

    __slots__ = ("type", "uid")

    def __init__(self, type: TensorType, uid: int):
        self.type = type
        self.uid = uid


@dataclasses.dataclass
class _StreamResult:
    """What a CostSink's ``finish`` returns (also the scan-body payload)."""

    estimate: CostEstimate
    peak_bytes: int
    params_bytes: int


@dataclasses.dataclass(frozen=True)
class _ChainStep:
    """One fused-collective emission of a recorded reconcile chain.

    The chain is linear by construction (each step consumes the previous
    step's result), so a step only needs the op's identity and its exact
    cost contributions — replay reproduces the same estimate increments and
    the same :class:`~repro.sim.memory.LiveRangeLog` records bit-for-bit.
    """

    opcode: str
    result_type: TensorType
    nbytes: int
    is_collective: bool
    bytes_moved: float
    seconds: float
    flops: float
    alias: bool


@dataclasses.dataclass(frozen=True)
class _ChainEntry:
    """A cached reconcile chain: its replayable steps and its result.

    ``did_emit`` distinguishes a chain that emitted nothing (the value was
    already in the required layout — any pending fusion window must stay
    open) from one whose emissions cancelled out (the window was consumed,
    so a pre-existing pending op has been flushed).  A chain with no steps
    returns its input handle unchanged on replay.
    """

    steps: Tuple[_ChainStep, ...]
    did_emit: bool
    final_sharding: object  # the Sharding the reconciled value ends up in


class CostSink:
    """Sink that prices the lowering stream instead of materializing it.

    Accepts the same emission protocol as
    :class:`~repro.spmd.lower.MaterializeSink`, but accumulates a
    :class:`CostEstimate` and a :class:`~repro.sim.memory.LiveRangeLog`
    directly.  The collective-fusion peepholes of
    :mod:`repro.spmd.fusion` are applied in-stream: an ``all_reduce`` /
    ``all_gather`` is held *pending* for exactly one emission step, and an
    immediately-following ``all_slice`` consuming it fuses into
    ``reduce_scatter`` (plus a residual ``all_reduce`` when the slice
    covers only part of the reduction axes), a cancellation, or an
    ``all_to_all``.  The reconcile chains the lowerer emits are contiguous
    and their intermediates single-use by construction, so this one-step
    window is exactly the fixed point ``fuse_collectives`` reaches on the
    materialized function — the streaming-equivalence property tests pin
    that claim.
    """

    __slots__ = ("mesh", "device", "_acc", "_uids", "_log",
                 "_params_bytes", "_pending", "_record", "_emitted")

    def __init__(self, mesh: Mesh, device: DeviceSpec, uids=None):
        self.mesh = mesh
        self.device = device
        self._acc = _CostAcc(device.peak_flops * _COMPUTE_EFFICIENCY)
        self._uids = uids if uids is not None else itertools.count()
        self._log = LiveRangeLog()
        self._params_bytes = 0
        self._pending: Optional[tuple] = None
        #: When a list, _cost_op appends a _ChainStep per priced op (the
        #: reconcile-chain recorder's scratch sinks turn this on).
        self._record: Optional[list] = None
        self._emitted = False

    # -- sink protocol ------------------------------------------------------

    def add_param(self, type: TensorType, name=None) -> _StreamValue:
        handle = _StreamValue(type, next(self._uids))
        nbytes = type.nbytes
        self._params_bytes += nbytes
        self._log.add_param(handle.uid, nbytes)
        return handle

    def set_input_names(self, names) -> None:
        pass

    def set_name(self, handle, name) -> None:
        pass

    def subsink(self, name: str) -> "CostSink":
        return CostSink(self.mesh, self.device, self._uids)

    def emit(self, opcode, operands, attrs, regions=None):
        self._emitted = True
        if opcode in opdefs.LOOP_OPS:
            return self._emit_loop(operands, attrs, regions)
        pending = self._pending
        if pending is not None:
            if opcode == "all_slice" and operands[0] is pending[3]:
                fused = self._try_fuse(pending, attrs)
                if fused is not None:
                    self._pending = None
                    return fused
            self._flush_pending()
        attrs = dict(attrs)
        result_types = opdefs.get(opcode).infer(
            [o.type for o in operands], attrs, []
        )
        handles = [_StreamValue(t, next(self._uids)) for t in result_types]
        if opcode in ("all_reduce", "all_gather"):
            # Hold for one step: the next emission either fuses it away
            # (an all_slice consuming it) or finalizes it unchanged.
            self._pending = (opcode, operands[0], attrs, handles[0])
            return handles
        self._cost_op(opcode, operands, attrs, handles)
        return handles

    def emit_planned(self, opcode, operands, attrs, plan):
        """Fast path for a planned main-op emission: result types, sizes and
        FLOPs were precomputed at plan time, so no type inference runs.
        Main ops come from the global program and are never collectives, so
        no fusion window applies — just flush any pending chain tail."""
        if self._pending is not None:
            self._flush_pending()
        uids = self._uids
        handles = [_StreamValue(t, next(uids)) for t in plan.result_types]
        self._acc.add_op_cost(plan.flops)
        self._log.add_op(
            [o.uid for o in operands],
            [(h.uid, b) for h, b in zip(handles, plan.result_nbytes)],
            alias=opcode in memory_mod.ALIASING_OPS,
        )
        return handles

    def finish(self, results, names) -> _StreamResult:
        self._flush_pending()
        peak = self._log.peak_bytes([r.uid for r in results])
        return _StreamResult(self._acc.estimate(), peak, self._params_bytes)

    # -- accounting ---------------------------------------------------------

    def _cost_op(self, opcode, operands, attrs, handles) -> None:
        collective = is_collective(opcode)
        bytes_moved = seconds = flops = 0.0
        if collective:
            bytes_moved, seconds = collective_cost(
                opcode, attrs, operands[0].type.nbytes,
                handles[0].type.nbytes, self.mesh, self.device,
            )
            self._acc.add_coll_cost(opcode, bytes_moved, seconds)
        else:
            opdef = opdefs.get(opcode)
            flops = opdef.flops([o.type for o in operands], attrs) \
                if opdef.flops else 0.0
            self._acc.add_op_cost(flops)
        alias = opcode in memory_mod.ALIASING_OPS
        self._log.add_op(
            [o.uid for o in operands],
            [(h.uid, h.type.nbytes) for h in handles],
            alias=alias,
        )
        if self._record is not None:
            self._record.append(_ChainStep(
                opcode, handles[0].type, handles[0].type.nbytes,
                collective, bytes_moved, seconds, flops, alias,
            ))

    def replay_chain(self, value, entry: _ChainEntry):
        """Apply a recorded reconcile chain's cost effects to this sink.

        Reproduces exactly what emitting the chain would have done: the
        same estimate increments in the same order, and the same linear
        live-range records (chains consume their own previous step).  A
        chain that emitted anything consumed the one-step fusion window, so
        any pending collective is flushed first — the position the real
        emission path would have flushed it in."""
        if entry.did_emit:
            self._flush_pending()
        acc = self._acc
        handle = value
        for step in entry.steps:
            new = _StreamValue(step.result_type, next(self._uids))
            if step.is_collective:
                acc.add_coll_cost(step.opcode, step.bytes_moved, step.seconds)
            else:
                acc.add_op_cost(step.flops)
            self._log.add_op([handle.uid], [(new.uid, step.nbytes)],
                             alias=step.alias)
            handle = new
        return handle

    def _flush_pending(self) -> None:
        if self._pending is None:
            return
        opcode, operand, attrs, handle = self._pending
        self._pending = None
        self._cost_op(opcode, [operand], attrs, [handle])

    def _try_fuse(self, pending, slice_attrs):
        """Fuse the pending collective with the all_slice consuming it.
        Returns the fused result handles, or None if the pair is unfusable
        (the caller then finalizes the pending op and emits the slice)."""
        p_opcode, p_operand, p_attrs, _ = pending
        if p_opcode == "all_reduce":
            reduce_axes = tuple(p_attrs["axes"])
            slice_axes = {a for axes in slice_attrs["dims"] for a in axes}
            if not slice_axes or not slice_axes <= set(reduce_axes):
                return None
            kind = p_attrs.get("kind", "add")
            value = p_operand
            residual = tuple(a for a in reduce_axes if a not in slice_axes)
            if residual:
                residual_attrs = {
                    "axes": residual,
                    "kind": kind,
                    "sizes": {a: p_attrs["sizes"][a] for a in residual},
                }
                handle = _StreamValue(value.type, next(self._uids))
                self._cost_op("all_reduce", [value], residual_attrs, [handle])
                value = handle
            rs_attrs = dict(slice_attrs)
            rs_attrs["kind"] = kind
            result_type = opdefs.get("reduce_scatter").infer(
                [value.type], rs_attrs, []
            )[0]
            handle = _StreamValue(result_type, next(self._uids))
            self._cost_op("reduce_scatter", [value], rs_attrs, [handle])
            return [handle]

        # all_gather + all_slice
        g_dims = p_attrs["dims"]
        s_dims = slice_attrs["dims"]
        if tuple(g_dims) == tuple(s_dims):
            return [p_operand]  # exact cancellation: nothing executes
        move = single_axis_move(g_dims, s_dims)
        if move is None:
            return None
        a2a_attrs = {
            **move,
            "sizes": {a: p_attrs["sizes"][a] for a in move["axes"]},
            "operand_dims": p_attrs.get("operand_dims"),
            "result_dims": slice_attrs.get("result_dims"),
        }
        result_type = opdefs.get("all_to_all").infer(
            [p_operand.type], a2a_attrs, []
        )[0]
        handle = _StreamValue(result_type, next(self._uids))
        self._cost_op("all_to_all", [p_operand], a2a_attrs, [handle])
        return [handle]

    def _emit_loop(self, operands, attrs, regions):
        self._flush_pending()
        body: _StreamResult = regions[0]
        cond: Optional[_StreamResult] = (
            regions[1] if len(regions) > 1 else None
        )
        num_carries = attrs.get("num_carries", len(operands))
        handles = [
            _StreamValue(operands[i].type, next(self._uids))
            for i in range(num_carries)
        ]
        self._acc.apply(
            loop_cost_terms(attrs, body.estimate, self.device,
                            cond.estimate if cond is not None else None),
            1.0, 1,
        )
        extra = memory_mod.loop_extra_bytes(
            attrs, body.peak_bytes, body.params_bytes
        )
        if cond is not None:
            extra += memory_mod.scan_body_extra_bytes(
                cond.peak_bytes, cond.params_bytes
            )
        self._log.add_op(
            [o.uid for o in operands],
            [(h.uid, h.type.nbytes) for h in handles],
            extra=extra,
        )
        return handles


class _MemoLowerer(Lowerer):
    """A lowerer whose per-op plans come from the estimator's memo table."""

    def __init__(self, env, estimator: "StreamingEstimator"):
        super().__init__(env)
        self._estimator = estimator

    def _reconcile(self, sink, value, actual, required, allowed_pending):
        """Reconcile through the estimator's whole-chain cost cache.

        A reconcile chain's emissions (and their in-stream fusion) are a
        pure function of ``(value type, source layout, target layout)`` —
        fusion never crosses a chain boundary, because the one-step pending
        window only matches the chain's own handles.  So the chain is
        recorded once into a scratch sink and replayed everywhere else,
        skipping attrs construction, type inference and collective-cost
        math on the remaining per-evaluation hot path.
        """
        estimator = self._estimator
        rank = actual.rank
        required_t = tuple(
            tuple(required.get(d, ())) for d in range(rank)
        )
        ar_axes = tuple(
            a for a in sorted(actual.sum_axes) if a not in allowed_pending
        )
        # Same dedup contract as the uncached path: a pending reduction of
        # the same value to the same layout is materialized exactly once
        # per lowering (one reduce_scatter per gradient).
        reduce_key = None
        if ar_axes:
            reduce_key = (id(sink), value.uid, ar_axes, required_t)
            cached = self._reduce_cache.get(reduce_key)
            if cached is not None:
                return cached
        # actual.iid stands in for the full signature tuple: interning
        # guarantees one id per distinct layout, so the key hashes a few
        # ints instead of nested axis-string tuples.
        chain_key = (value.type, actual.iid, required_t, ar_axes)
        entry = estimator._chains.get(chain_key)
        if entry is None:
            entry = estimator._miss_chain(
                chain_key,
                lambda: self._record_chain(value.type, actual, required,
                                           allowed_pending),
            )
        else:
            estimator.reconcile_hits += 1
        handle = sink.replay_chain(value, entry)
        result = (handle, entry.final_sharding)
        if reduce_key is not None:
            self._reduce_cache[reduce_key] = result
        return result

    def _record_chain(self, value_type, actual, required,
                      allowed_pending) -> _ChainEntry:
        """Run the real reconcile once against a scratch sink, capturing
        each priced emission as a replayable step."""
        scratch = CostSink(self.mesh, self._estimator.device)
        scratch._record = []
        handle = _StreamValue(value_type, next(scratch._uids))
        # The scratch run must not read or pollute the real per-lowering
        # reduce cache (scratch uids/sink ids are throwaway).
        saved, self._reduce_cache = self._reduce_cache, {}
        try:
            _, final_sharding = super()._reconcile(
                scratch, handle, actual, required, allowed_pending
            )
        finally:
            self._reduce_cache = saved
        did_emit = scratch._emitted
        scratch._flush_pending()  # capture an unfused pending tail's cost
        return _ChainEntry(
            steps=tuple(scratch._record),
            did_emit=did_emit,
            final_sharding=final_sharding,
        )

    def _lower_op(self, op, sink, value_map) -> None:
        if op.opcode in opdefs.LOOP_OPS:
            # Loop lowering reads the whole body, not just adjacent
            # shardings; its *body ops* are memoized individually instead.
            super()._lower_op(op, sink, value_map)
            return
        if op.opcode == "tag" and self._tag_transparent(op):
            # Same skip as the materializing path: a transparent tag marker
            # contributes no cost, no live-range record, no plan.
            value_map[op.results[0]] = value_map[op.operands[0]]
            return
        estimator = self._estimator
        env = self.env
        # Interned-id key: pointer-sized ints, one per adjacent value (see
        # Sharding.iid) — equal iid tuples iff equal signature tuples.
        signature = tuple(
            env.sharding(v).iid
            for v in itertools.chain(op.operands, op.results)
        )
        plans = estimator._plans.get(id(op))
        if plans is None:
            plans = estimator._plans[id(op)] = {}
        plan = plans.get(signature)
        if plan is None:
            plan = plans[signature] = estimator._miss_plan(
                op, signature, lambda: self._plan_op(op)
            )
        else:
            estimator.ops_reused += 1
        self._execute_plan(op, plan, sink, value_map)


class StreamingEstimator:
    """Fused lower + fuse_collectives + estimate, without materializing IR.

    Reusable across many envs over the *same* function (the MCTS evaluates
    thousands): per-op lowering plans are memoized on the cached sharding
    signatures of the op's adjacent values, so evaluating an env that
    differs from a previously-seen one only on part of the program re-plans
    only that part.  ``ops_reused`` / ``ops_planned`` count memo hits and
    misses across the estimator's lifetime.
    """

    def __init__(self, function: Function, mesh: Mesh, device: DeviceSpec):
        self.function = function
        self.mesh = mesh
        self.device = device
        self.ops_planned = 0
        self.ops_reused = 0
        self.reconcile_hits = 0
        self.reconcile_misses = 0
        #: Plan/chain entries served from the cross-worker shared store
        #: (attached by the process scheduler; see repro.auto.sharedmemo).
        self.shared_plan_hits = 0
        # id(op) -> {adjacent-sharding iid tuple -> _OpPlan}.  Keying on
        # id() is safe: self.function keeps every op (and region op) alive.
        self._plans: Dict[int, Dict[tuple, object]] = {}
        # (value type, source layout iid, target layout, reduced axes) ->
        # _ChainEntry: whole reconcile-chain costs.
        self._chains: Dict[tuple, _ChainEntry] = {}
        #: Incremental re-estimation state bound to one mutable env (the
        #: undo-log rollout evaluator's); see :meth:`estimate_incremental`.
        self._inc: Optional["_IncrementalEstimate"] = None
        # Cross-worker shared plan memo (see repro.auto.sharedmemo): None
        # until the process scheduler attaches a store.
        self._shared = None
        self._shared_offset = 0
        self._shared_pending: List[tuple] = []
        self._staged_plans: Dict[tuple, object] = {}
        self._staged_chains: Dict[tuple, _ChainEntry] = {}
        self._ops_walk: Optional[List] = None
        self._op_pos: Optional[Dict[int, int]] = None

    def __getstate__(self):
        """Pickle support for shipping the estimator to search workers.

        The memo tables are process-local (plans key on ``id(op)`` and
        intern ids; both rebuild lazily and cheaply), so they are dropped
        rather than serialized — the worker starts with warm code, cold
        caches."""
        state = self.__dict__.copy()
        state["_plans"] = {}
        state["_inc"] = None
        state["_shared"] = None
        state["_shared_offset"] = 0
        state["_shared_pending"] = []
        state["_staged_plans"] = {}
        state["_staged_chains"] = {}
        state["_ops_walk"] = None
        state["_op_pos"] = None
        state["_chains"] = {}
        return state

    # -- cross-worker shared memo -------------------------------------------

    def attach_shared_store(self, store) -> None:
        """Join a :class:`repro.auto.sharedmemo.SharedMemoStore`.

        From now on, every cold plan/chain computation is queued for
        publication (flushed once per estimate call), and every estimate
        call first polls the store, *staging* records other processes
        published.  Staged entries are adopted only when a local lookup
        actually misses — ``shared_plan_hits`` therefore counts real cold
        computations avoided, not records received.
        """
        if store is None:
            return
        self._shared = store
        self._ops_walk = list(self.function.walk())
        self._op_pos = {id(op): i for i, op in enumerate(self._ops_walk)}

    def _shared_sync(self) -> None:
        self._shared_offset, records = self._shared.poll(self._shared_offset)
        if not records:
            return
        ops_walk = self._ops_walk
        plans_all = self._plans
        for record in records:
            if record[0] == "p":
                _, op_index, sig_signatures, plan = record
                op = ops_walk[op_index]
                sig = tuple(
                    intern_sharding(
                        Sharding(ds, frozenset(ss), frozenset(ps))
                    )._iid
                    for ds, ss, ps in sig_signatures
                )
                plans = plans_all.get(id(op))
                if plans is not None and sig in plans:
                    continue  # already computed locally (incl. own records)
                self._staged_plans[(id(op), sig)] = plan
            else:
                _, (value_type, actual_sig, required_t, ar_axes), entry = \
                    record
                ds, ss, ps = actual_sig
                iid = intern_sharding(
                    Sharding(ds, frozenset(ss), frozenset(ps))
                )._iid
                key = (value_type, iid, required_t, ar_axes)
                if key not in self._chains:
                    self._staged_chains[key] = entry

    def _shared_flush(self) -> None:
        if self._shared is not None and self._shared_pending:
            self._shared.publish(self._shared_pending)
            self._shared_pending = []

    def _take_staged_plan(self, op, sig):
        plan = self._staged_plans.pop((id(op), sig), None)
        if plan is not None:
            self.shared_plan_hits += 1
        return plan

    def _take_staged_chain(self, key):
        entry = self._staged_chains.pop(key, None)
        if entry is not None:
            self.shared_plan_hits += 1
        return entry

    def _miss_plan(self, op, sig, plan_fn):
        """Resolve a local plan-memo miss: adopt a staged shared-store
        entry if one exists, else compute via ``plan_fn`` (counting the
        cold plan) and queue it for publication.  The one place the
        adoption/counting semantics live — both the loop-body walk and the
        incremental resolver call through here."""
        plan = self._take_staged_plan(op, sig) \
            if self._shared is not None else None
        if plan is None:
            plan = plan_fn()
            self.ops_planned += 1
            self._note_plan(op, sig, plan)
        return plan

    def _miss_chain(self, chain_key, record_fn):
        """Resolve a local chain-memo miss (mirror of :meth:`_miss_plan`);
        stores the entry and counts the miss."""
        entry = self._take_staged_chain(chain_key) \
            if self._shared is not None else None
        if entry is None:
            entry = record_fn()
            self._note_chain(chain_key, entry)
        self._chains[chain_key] = entry
        self.reconcile_misses += 1
        return entry

    def _note_plan(self, op, sig, plan) -> None:
        if self._shared is not None:
            self._shared_pending.append((
                "p", self._op_pos[id(op)],
                tuple(sharding_from_iid(iid).signature() for iid in sig),
                plan,
            ))

    def _note_chain(self, key, entry) -> None:
        if self._shared is not None:
            value_type, iid, required_t, ar_axes = key
            self._shared_pending.append((
                "c",
                (value_type, sharding_from_iid(iid).signature(), required_t,
                 ar_axes),
                entry,
            ))

    def estimate_incremental(self, env, changed_values=None,
                             overlap: bool = True) -> CostEstimate:
        """Exact re-estimation of one *mutable* env in O(changed ops).

        Built for the undo-log rollout evaluator: the caller owns a single
        env it extends and retracts in place (``checkpoint``/``rollback``)
        and passes the env's drained write journal as ``changed_values``.
        Only ops adjacent to a changed value refresh their cached
        *resolved segment* (plan + reconcile-chain entries + live-range
        records, keyed by the interned ids of the adjacent shardings);
        the changed units' cost terms and live-range profiles are then
        swapped into exact running totals, which is bit-identical to the
        materializing ``lower -> fuse_collectives -> estimate`` pipeline on
        every field.

        ``changed_values=None`` forces a full rebuild (always the case on
        the first call for an env).

        A non-None ``changed_values`` is only trusted when the env's
        journal actually covers every write since this estimator last
        synced with the env (checked against the monotone
        ``env.write_serial`` and the drain window): if the journal was
        never enabled, was drained by another party mid-search, or the env
        moved after the drain, the integrated state silently missing those
        writes would reuse stale segments — so the call falls back to the
        exact full-rebuild path instead.
        """
        inc = self._inc
        if inc is None or inc.env is not env:
            inc = self._inc = _IncrementalEstimate(self, env)
            changed_values = None
        if changed_values is not None:
            window = env.last_drain_window
            if (window is None or window[1] != env.write_serial
                    or window[0] > inc.synced_serial):
                changed_values = None
        if self._shared is not None:
            self._shared_sync()
        result = inc.run(changed_values, overlap)
        inc.synced_serial = env.write_serial
        self._shared_flush()
        return result


class _UnitState:
    """Per-top-level-op incremental state: the values whose shardings key
    the unit's behavior, the memo of resolved segments, and the segment
    currently in force."""

    __slots__ = ("op", "is_loop", "is_tag", "sig_values", "segments",
                 "segment")

    def __init__(self, op, is_loop: bool, sig_values: tuple):
        self.op = op
        self.is_loop = is_loop
        self.is_tag = op.opcode == "tag"
        self.sig_values = sig_values
        self.segments: Dict[tuple, tuple] = {}
        self.segment: Optional[tuple] = None


class _IncrementalEstimate:
    """Segment-cached replay of the streaming estimate for one mutable env.

    A whole-function lowering walk spends its time *resolving*: rebuilding
    per-op signature keys, fetching plans, recomputing reconcile targets
    and re-pricing chains.  For a single env mutated in place between
    evaluations, almost none of that changes — so this class splits
    evaluation into:

    * **refresh** (dirty ops only): recompute the op's interned-signature
      key and look up / build its *resolved segment* — the operand
      reconcile-chain entries (with their pending-reduction dedup keys),
      the op plan, and the trailing-slice sizes.  Segments are memoized
      per signature, so toggling between explored search branches re-hits
      old segments instead of re-resolving.
    * **replay** (every op, in program order): apply the segment's exact
      cost increments and live-range records to fresh accumulators.  The
      increment sequence is identical to the full walk's — floating-point
      addition order included — so results are bit-identical.

    Cross-op couplings are re-established per replay, exactly as the full
    walk does per evaluation: pending reductions deduplicate through a
    fresh per-evaluation seen-map (first materializing site pays), and
    peak memory comes from a freshly spliced
    :class:`~repro.sim.memory.LiveRangeLog`.
    """

    def __init__(self, estimator: StreamingEstimator, env):
        self.estimator = estimator
        self.env = env
        self.function = estimator.function
        self.mesh = estimator.mesh
        self.device = estimator.device
        self._lowerer = _MemoLowerer(env, estimator)
        self._units: List[_UnitState] = []
        #: Segment currently in force per unit, in program order — the
        #: list the replay loop iterates (refresh rewrites entries).
        self._current: List[Optional[tuple]] = []
        #: value -> tuple of unit indices to refresh when it changes
        #: (PARAMS/RESULTS are pseudo-units for the boundary segments).
        self._adjacent: Dict[object, tuple] = {}
        self._params_segments: Dict[tuple, tuple] = {}
        self._params_segment: Optional[tuple] = None
        self._results_segments: Dict[tuple, tuple] = {}
        self._results_segment: Optional[tuple] = None
        self._build_units()
        # -- differential state (see the "differential integration" section):
        # positions 0 (params), 1..N (top-level ops), N+1 (results).
        count = len(self._units) + 2
        self._pos_count = count
        self._pos_results = count - 1
        self._recs: List[tuple] = [()] * count
        self._bundles: List[tuple] = [()] * count
        self._rops: List[tuple] = [()] * count
        self._deps_val: List[frozenset] = [frozenset()] * count
        self._deps_key: List[frozenset] = [frozenset()] * count
        self._unit_keys: List[dict] = [{}] * count
        self._unit_dids: List[list] = [[] for _ in range(count)]
        self._unit_exports: List[dict] = [{}] * count
        self._unit_finals: List[dict] = [{}] * count
        self._uses_by: List[dict] = [{}] * count
        self._frees: List[dict] = [dict() for _ in range(count)]
        self._exports: Dict[object, tuple] = {}
        self._finals: Dict[tuple, tuple] = {}
        self._val_consumers: Dict[object, set] = {}
        self._key_consumers: Dict[tuple, set] = {}
        self._key_sites: Dict[tuple, dict] = {}
        self._key_owner: Dict[tuple, tuple] = {}
        self._uses: Dict[int, dict] = {}
        self._last_use: Dict[int, tuple] = {}
        self._def_nbytes: Dict[int, int] = {}
        self._def_pos: Dict[int, tuple] = {}
        self._parent: Dict[int, int] = {}
        self._children: Dict[int, set] = {}
        self._free_pos: Dict[int, tuple] = {}
        self._out_refs: tuple = ()
        self._out_handles: tuple = ()
        self._out_roots: set = set()
        self._out_member: set = set()
        self._acc = _CostAcc(self.device.peak_flops * _COMPUTE_EFFICIENCY)
        self._tree = PeakSegmentTree(count)
        self._did_counter = itertools.count()
        self._primed = False
        #: Units whose current segment the differential state does not yet
        #: reflect (accumulated across bulk-replay evaluations; integrated
        #: in one catch-up pass before the next differential answer).
        self._stale_units: set = set()
        #: index -> segment object the differential state last integrated,
        #: so A -> B -> A round-trips (rollback-heavy searches revisit
        #: states constantly) drop out of the backlog as no-ops.
        self._synced_segments: Dict[int, tuple] = {}
        self._diff_primed = False
        #: value -> sharding iid its adjacent units' segments reflect.  A
        #: journaled write whose value is back on the recorded sharding
        #: (rollback + re-extension along a shared prefix lands most
        #: values exactly where they were) dirties nothing — the sig
        #: rebuild over thousands of round-tripped units is the refresh
        #: loop's dominant cost on deep rollouts.
        self._seen_iids: Dict[object, int] = {}
        #: id(segment) -> compiled stable-uid replay plan for
        #: :meth:`_bulk_replay`.  Plans pin their segment (first element),
        #: so an id can never be recycled underneath the cache.
        self._bulk_plans: Dict[int, tuple] = {}
        self._bulk_uid = itertools.count()
        #: Whole-state result memo for :meth:`_bulk_replay`: segment
        #: identity fingerprint -> (estimate, site hits).  MCTS revisits
        #: whole states constantly (permuted action chains commute to the
        #: same env state), and the replay output is a pure function of
        #: the segment instances, so a fingerprint hit skips the replay
        #: outright.  Bounded: cleared wholesale when it grows past 1024
        #: states (keys hold one id per unit, so entries are not free).
        self._bulk_memo: Dict[tuple, tuple] = {}
        #: Env write serial the integrated state reflects (see
        #: :meth:`StreamingEstimator.estimate_incremental`'s coverage gate).
        self.synced_serial = -1

    _PARAMS = -1
    _RESULTS = -2

    def _link(self, value, unit_index: int) -> None:
        existing = self._adjacent.get(value, ())
        if not existing or existing[-1] != unit_index:
            self._adjacent[value] = existing + (unit_index,)

    def _build_units(self) -> None:
        function = self.function
        for param in function.params:
            self._link(param, self._PARAMS)
        for op in function.ops:
            index = len(self._units)
            is_loop = op.opcode in opdefs.LOOP_OPS
            if is_loop:
                # A loop's lowering reads the whole body (cond included),
                # so its segment keys on (and is invalidated by) every
                # subtree value — pipeline pins land here too.
                sig_values: Dict[object, None] = {}

                def visit(fn):
                    for value in fn.params:
                        sig_values.setdefault(value)
                    for inner in fn.ops:
                        for value in inner.operands:
                            sig_values.setdefault(value)
                        for value in inner.results:
                            sig_values.setdefault(value)
                        for region in inner.regions:
                            visit(region)

                for value in op.operands:
                    sig_values.setdefault(value)
                for value in op.results:
                    sig_values.setdefault(value)
                for region in op.regions:
                    visit(region)
                values = tuple(sig_values)
            else:
                values = tuple(op.operands) + tuple(op.results)
            for value in values:
                self._link(value, index)
            self._units.append(_UnitState(op, is_loop, values))
        self._current = [None] * len(self._units)
        for result in function.results:
            self._link(result, self._RESULTS)

    # -- refresh ------------------------------------------------------------

    def run(self, changed_values, overlap: bool) -> CostEstimate:
        units = self._units
        sharding = self.env.sharding
        # Direct probe of the env's store, with sharding() supplying the
        # replicated default on a miss: this loop touches tens of thousands
        # of values per evaluation, so the method-call frame is pure
        # overhead on the hit path.
        stored_get = self.env._shardings.get
        force = not self._primed or changed_values is None
        if force:
            self._primed = True
            dirty = set(range(len(units)))
            dirty.add(self._PARAMS)
            dirty.add(self._RESULTS)
            self._seen_iids = {
                value: sharding(value)._iid for value in self._adjacent
            }
        else:
            dirty = set()
            adjacent = self._adjacent
            seen = self._seen_iids
            for value in changed_values:
                s = stored_get(value)
                iid = s._iid if s is not None else sharding(value)._iid
                if seen.get(value) == iid:
                    # Round-trip write: the value is back on the sharding
                    # every adjacent segment already reflects (all of them
                    # were refreshed when it was recorded), so nothing
                    # here can have moved.
                    continue
                seen[value] = iid
                for index in adjacent.get(value, ()):
                    dirty.add(index)
        # Refresh inline: this loop runs for every dirty op on every
        # evaluation, so the common hit path (sig rebuild -> memo get) is
        # kept free of method-call overhead.  A segment that resolves to
        # the identical memo entry leaves the integrated state untouched.
        estimator = self.estimator
        current = self._current
        changed_units = []
        for index in dirty:
            if index < 0:
                if index == self._PARAMS:
                    old = self._params_segment
                    self._refresh_params()
                    if force or self._params_segment is not old:
                        changed_units.append(index)
                else:
                    old = self._results_segment
                    self._refresh_results()
                    if force or self._results_segment is not old:
                        changed_units.append(index)
                continue
            unit = units[index]
            sig = tuple([
                s._iid if (s := stored_get(v)) is not None
                else sharding(v)._iid
                for v in unit.sig_values
            ])
            segments = unit.segments
            segment = segments.get(sig)
            if segment is None:
                if unit.is_loop:
                    segment = self._resolve_loop(unit.op)
                elif unit.is_tag and sig[0] == sig[1]:
                    # Transparent tag marker: the same skip the walking
                    # paths apply — the result aliases the operand.
                    segment = ("alias", unit.op.operands[0],
                               unit.op.results[0])
                else:
                    segment = self._resolve_plain(unit.op, sig)
                segments[sig] = segment
            else:
                estimator.ops_reused += 1
            unit.segment = segment
            if force or segment is not current[index]:
                changed_units.append(index)
            current[index] = segment
        # -- mode pick: the differential bookkeeping (registry diffs,
        # position resolution, segment-tree updates) has a per-unit
        # constant far above a plain segment replay, so it only wins when
        # the *effective* backlog — segments the integrated state has not
        # seen, after dropping A -> B -> A round-trips — is a small slice
        # of the function.  Above the threshold the whole-function replay
        # is cheaper; the integrated state is left stale and the backlog
        # is carried forward for the next small-delta evaluation.
        stale = self._stale_units
        stale.update(changed_units)
        synced = self._synced_segments
        effective = []
        for index in stale:
            if index == self._PARAMS:
                segment = self._params_segment
            elif index == self._RESULTS:
                segment = self._results_segment
            else:
                segment = current[index]
            if segment is not synced.get(index):
                effective.append(index)
        if self._diff_primed and len(effective) * 4 > self._pos_count:
            return self._bulk_replay(overlap)
        if effective:
            self._integrate(effective)
            for index in effective:
                if index == self._PARAMS:
                    synced[index] = self._params_segment
                elif index == self._RESULTS:
                    synced[index] = self._results_segment
                else:
                    synced[index] = current[index]
        stale.clear()
        self._diff_primed = True
        est = self._acc.estimate()
        est.runtime_s = (max(est.compute_s, est.comm_s) if overlap
                         else est.compute_s + est.comm_s)
        est.peak_memory_bytes = self._tree.peak()
        return est

    def _bulk_replay(self, overlap: bool) -> CostEstimate:
        """Whole-function replay over the memoized segments.

        Fallback for evaluations that re-shard most of the function (deep
        rollouts on the widened action space routinely dirty the majority
        of values).  Each segment instance is compiled once into a replay
        plan carrying *stable* uids: def pairs, chain records past the
        first hop, trailing-slice records and the per-segment cost terms
        are pre-built tuples, so a replay is mostly ``list.extend`` calls
        — only the operand-uid tuples (which depend on which segments
        produced the operands *this* evaluation) are rebuilt.  Stable,
        sparse uids are safe: :meth:`LiveRangeLog.peak_bytes` keys every
        table by uid and never assumes density, and record *order* (which
        the peak walk does depend on) is byte-for-byte the sequential
        replay's.  Plans key on ``id(segment)`` and pin the segment, so
        ids cannot be recycled underneath the cache.

        The cost terms feed ``math.fsum`` — the correctly-rounded true
        sum of the term multiset, i.e. the very float the differential
        path's ``ExactSum.value()`` reports — so the result stays
        bit-identical to the materializing pipeline.  The
        integrated differential state is deliberately left stale; ``run``
        carries the debt in ``_stale_units``.
        """
        estimator = self.estimator
        # Whole-state fingerprint: segments are memoized per signature, so
        # identical env states present identical instances — two id-equal
        # fingerprints replay to the same estimate, bit for bit.
        memo = self._bulk_memo
        memo_key = (overlap, id(self._params_segment),
                    id(self._results_segment), tuple(map(id, self._current)))
        hit = memo.get(memo_key)
        if hit is not None:
            est, cached_hits = hit
            estimator.reconcile_hits += cached_hits
            return CostEstimate(
                est.runtime_s, est.compute_s, est.comm_s, est.local_flops,
                est.comm_bytes, est.peak_memory_bytes,
                dict(est.collective_time_s),
            )
        fl_terms: list = []
        cp_terms: list = []
        cb_terms: list = []
        cs_terms: list = []
        coll_map: Dict[str, list] = {}
        fl_extend = fl_terms.extend
        cp_extend = cp_terms.extend
        cb_extend = cb_terms.extend
        cs_extend = cs_terms.extend
        coll_get = coll_map.get

        log = LiveRangeLog()
        ops_append = log._ops.append
        ops_extend = log._ops.extend
        value_uids: Dict[object, int] = {}
        uid_get = value_uids.__getitem__
        reduce_seen: Dict[tuple, int] = {}
        site_hits = 0
        plans = self._bulk_plans

        segment = self._params_segment
        if segment:
            plan = plans.get(id(segment))
            if plan is None or plan[0] is not segment:
                plan = plans[id(segment)] = self._bulk_compile_params(
                    segment)
            log._params.extend(plan[2])
            value_uids.update(plan[3])

        def replay_site(plan) -> int:
            value, reduce_key, chain = plan
            if chain is None:
                # In-layout operand: the producer's export is the handle.
                return value_uids[value]
            if reduce_key is not None:
                cached = reduce_seen.get(reduce_key)
                if cached is not None:
                    return cached
            (first_def, first_alias, statics, fl_part, cp_part, cb_part,
             cs_part, coll_part, final) = chain
            # Only the first hop's operand is dynamic; the rest of the
            # chain consumes its own stable uids and is replayed verbatim.
            ops_append(((value_uids[value],), first_def, first_alias, 0))
            if statics:
                ops_extend(statics)
            if fl_part:
                fl_extend(fl_part)
                cp_extend(cp_part)
            if cb_part:
                cb_extend(cb_part)
                cs_extend(cs_part)
                for opcode, seconds in coll_part:
                    cell = coll_get(opcode)
                    if cell is None:
                        cell = coll_map[opcode] = [[], 0]
                    cell[0].append(seconds)
                    cell[1] += 1
            if reduce_key is not None:
                reduce_seen[reduce_key] = final
            return final

        for segment in self._current:
            plan = plans.get(id(segment))
            if plan is None or plan[0] is not segment:
                plan = plans[id(segment)] = self._bulk_compile(segment)
            kind = plan[1]
            if kind == "op0":
                # All operands already in layout, no trailing slices.
                (_, _, values, defs, alias, fl_part, cp_part,
                 result_items) = plan
                site_hits += len(values)
                ops_append((tuple(map(uid_get, values)), defs, alias, 0))
                if fl_part:
                    fl_extend(fl_part)
                    cp_extend(cp_part)
                for result, uid in result_items:
                    value_uids[result] = uid
            elif kind == "alias":
                # Transparent tag marker: no cost, no live-range record.
                value_uids[plan[3]] = value_uids[plan[2]]
            elif kind == "op":
                (_, _, site_plans, defs, alias, fl_part, cp_part,
                 post_records, coll_part, result_items) = plan
                site_hits += len(site_plans)
                operand_uids = tuple([replay_site(p) for p in site_plans])
                ops_append((operand_uids, defs, alias, 0))
                if post_records:
                    ops_extend(post_records)
                    for opcode, seconds in coll_part:
                        cell = coll_get(opcode)
                        if cell is None:
                            cell = coll_map[opcode] = [[], 0]
                        cell[0].append(seconds)
                        cell[1] += 1
                if fl_part:
                    fl_extend(fl_part)
                    cp_extend(cp_part)
                for result, uid in result_items:
                    value_uids[result] = uid
            else:  # loop
                (_, _, site_plans, defs, extra, fl_part, cp_part, cb_part,
                 cs_part, coll_part, tail_records, result_items) = plan
                site_hits += len(site_plans)
                operand_uids = tuple([replay_site(p) for p in site_plans])
                ops_append((operand_uids, defs, False, extra))
                if tail_records:
                    ops_extend(tail_records)
                fl_extend(fl_part)
                cp_extend(cp_part)
                cb_extend(cb_part)
                cs_extend(cs_part)
                for opcode, seconds in coll_part:
                    cell = coll_get(opcode)
                    if cell is None:
                        cell = coll_map[opcode] = [[], 0]
                    cell[0].append(seconds)
                    cell[1] += 1
                for result, uid in result_items:
                    value_uids[result] = uid

        segment = self._results_segment
        if segment:
            plan = plans.get(id(segment))
            if plan is None or plan[0] is not segment:
                plan = plans[id(segment)] = self._bulk_compile_results(
                    segment)
            site_plans = plan[2]
            site_hits += len(site_plans)
            result_uids = [replay_site(p) for p in site_plans]
        else:
            result_uids = []
        estimator.reconcile_hits += site_hits
        est = CostEstimate(
            0.0, math.fsum(cp_terms), math.fsum(cs_terms),
            math.fsum(fl_terms), math.fsum(cb_terms), 0.0,
            {opcode: math.fsum(cell[0])
             for opcode, cell in coll_map.items() if cell[1] > 0},
        )
        est.runtime_s = (max(est.compute_s, est.comm_s) if overlap
                         else est.compute_s + est.comm_s)
        est.peak_memory_bytes = log.peak_bytes(result_uids)
        if len(memo) >= 1024:
            memo.clear()
        memo[memo_key] = (est, site_hits)
        # The memoized instance stays pristine; callers get a copy (the
        # estimate type mutates in place via ``add``).
        return CostEstimate(
            est.runtime_s, est.compute_s, est.comm_s, est.local_flops,
            est.comm_bytes, est.peak_memory_bytes,
            dict(est.collective_time_s),
        )

    def _bulk_compile_params(self, segment) -> tuple:
        """Params replay plan: log records and value->uid exports."""
        mk = self._bulk_uid.__next__
        pairs = []
        items = []
        for param, nbytes in segment:
            uid = mk()
            pairs.append((uid, nbytes))
            items.append((param, uid))
        return (segment, "params", tuple(pairs), tuple(items))

    def _bulk_compile_results(self, segment) -> tuple:
        return (segment, "results",
                tuple(self._bulk_compile_site(site) for site in segment))

    def _bulk_compile_site(self, site) -> tuple:
        """Replay plan for one reconcile site: ``(value, reduce key,
        chain)`` with ``chain=None`` for in-layout operands, else the
        pre-built first-hop def, static tail records, separated cost
        terms, and the chain's final (export) uid."""
        value, entry, reduce_key = site
        steps = entry.steps
        if not steps:
            return (value, reduce_key, None)
        denom = self.device.peak_flops * _COMPUTE_EFFICIENCY
        mk = self._bulk_uid.__next__
        fl_part: list = []
        cp_part: list = []
        cb_part: list = []
        cs_part: list = []
        coll_part: list = []
        statics: list = []
        first_def = None
        first_alias = False
        prev = -1
        for position, step in enumerate(steps):
            uid = mk()
            if position == 0:
                first_def = ((uid, step.nbytes),)
                first_alias = step.alias
            else:
                statics.append(((prev,), ((uid, step.nbytes),),
                                step.alias, 0))
            if step.is_collective:
                cb_part.append(step.bytes_moved)
                cs_part.append(step.seconds)
                coll_part.append((step.opcode, step.seconds))
            else:
                fl_part.append(step.flops)
                cp_part.append(step.flops / denom)
            prev = uid
        return (value, reduce_key,
                (first_def, first_alias, tuple(statics), tuple(fl_part),
                 tuple(cp_part), tuple(cb_part), tuple(cs_part),
                 tuple(coll_part), prev))

    def _bulk_compile(self, segment) -> tuple:
        """Compile one memoized segment into its stable-uid replay plan."""
        tag = segment[0]
        mk = self._bulk_uid.__next__
        denom = self.device.peak_flops * _COMPUTE_EFFICIENCY
        if tag == "op0":
            _, values, flops, result_nbytes, results, alias = segment
            defs = tuple((mk(), nbytes) for nbytes in result_nbytes)
            items = tuple(
                (result, defs[r][0]) for r, result in enumerate(results))
            fl_part = (flops,) if flops else ()
            cp_part = (flops / denom,) if flops else ()
            return (segment, "op0", values, defs, alias, fl_part, cp_part,
                    items)
        if tag == "alias":
            return (segment, "alias", segment[1], segment[2])
        if tag == "op":
            (_, sites, flops, result_nbytes, results, alias,
             trailing) = segment
            site_plans = tuple(
                self._bulk_compile_site(site) for site in sites)
            defs = tuple((mk(), nbytes) for nbytes in result_nbytes)
            post_records = []
            coll_part = []
            items = []
            for r, result in enumerate(results):
                uid = defs[r][0]
                sliced_nbytes = trailing[r]
                if sliced_nbytes is not None:
                    new_uid = mk()
                    post_records.append(
                        ((uid,), ((new_uid, sliced_nbytes),), False, 0))
                    coll_part.append(("all_slice", 0.0))
                    uid = new_uid
                items.append((result, uid))
            fl_part = (flops,) if flops else ()
            cp_part = (flops / denom,) if flops else ()
            return (segment, "op", site_plans, defs, alias, fl_part,
                    cp_part, tuple(post_records), tuple(coll_part),
                    tuple(items))
        # loop
        (_, sites, terms, carry_nbytes, results, tail_sites,
         extra, _num_carries) = segment
        site_plans = tuple(self._bulk_compile_site(site) for site in sites)
        defs = tuple((mk(), nbytes) for nbytes in carry_nbytes)
        fl_part = [t[1] for t in terms if t[0] == "fl"]
        cp_part = [t[1] for t in terms if t[0] == "cp"]
        cb_part = [t[1] for t in terms if t[0] == "cb"]
        cs_part = [t[1] for t in terms if t[0] == "cs"]
        coll_part = [(t[1], t[2]) for t in terms if t[0] == "co"]
        exports = {result: defs[i][0] for i, result in enumerate(results)}
        tail_records = []
        for tail in tail_sites:
            index, entry = tail[0], tail[1]
            prev = exports[results[index]]
            for step in entry.steps:
                uid = mk()
                tail_records.append(
                    ((prev,), ((uid, step.nbytes),), step.alias, 0))
                if step.is_collective:
                    cb_part.append(step.bytes_moved)
                    cs_part.append(step.seconds)
                    coll_part.append((step.opcode, step.seconds))
                else:
                    fl_part.append(step.flops)
                    cp_part.append(step.flops / denom)
                prev = uid
            exports[results[index]] = prev
        return (segment, "loop", site_plans, defs, extra, tuple(fl_part),
                tuple(cp_part), tuple(cb_part), tuple(cs_part),
                tuple(coll_part), tuple(tail_records),
                tuple(exports.items()))

    def _sig(self, values) -> tuple:
        sharding = self.env.sharding
        # Direct _iid access: every env-stored sharding is the canonical
        # interned instance (set_sharding interns; the replicated default
        # is interned at construction).
        return tuple([sharding(v)._iid for v in values])

    def _refresh_params(self) -> None:
        function = self.function
        sig = self._sig(function.params)
        segment = self._params_segments.get(sig)
        if segment is None:
            env = self.env
            segment = self._params_segments[sig] = tuple(
                (param, self._local_type(param, env.sharding(param)).nbytes)
                for param in function.params
            )
        self._params_segment = segment

    def _refresh_results(self) -> None:
        function = self.function
        sig = self._sig(function.results)
        segment = self._results_segments.get(sig)
        if segment is None:
            env = self.env
            sites = []
            for result in function.results:
                actual = env.sharding(result)
                target = actual.without_sum(actual.sum_axes)
                required = {
                    d: list(axes) for d, axes in enumerate(target.dim_axes)
                }
                sites.append(self._resolve_site(result, actual, required,
                                                set()))
            segment = self._results_segments[sig] = tuple(sites)
        self._results_segment = segment

    # -- resolution ---------------------------------------------------------

    def _local_type(self, value, sharding):
        return value.type.with_shape(
            sharding.local_shape(value.type.shape, self.mesh)
        )

    def _resolve_site(self, value, actual, required, allowed_pending):
        """One operand-reconciliation site: ``(value, chain entry,
        pending-reduction dedup key or None)`` — the exact mirror of
        :meth:`_MemoLowerer._reconcile`'s key computation."""
        estimator = self.estimator
        rank = actual.rank
        required_t = tuple(tuple(required.get(d, ())) for d in range(rank))
        ar_axes = tuple(
            a for a in sorted(actual.sum_axes) if a not in allowed_pending
        )
        local = self._local_type(value, actual)
        chain_key = (local, actual.iid, required_t, ar_axes)
        entry = estimator._chains.get(chain_key)
        if entry is None:
            entry = estimator._miss_chain(
                chain_key,
                lambda: self._lowerer._record_chain(local, actual, required,
                                                    allowed_pending),
            )
        else:
            estimator.reconcile_hits += 1
        reduce_key = (value, ar_axes, required_t) if ar_axes else None
        return (value, entry, reduce_key)

    def _resolve_plain(self, op, sig: tuple) -> tuple:
        estimator = self.estimator
        plans = estimator._plans.get(id(op))
        if plans is None:
            plans = estimator._plans[id(op)] = {}
        plan = plans.get(sig)
        if plan is None:
            plan = plans[sig] = estimator._miss_plan(
                op, sig, lambda: self._lowerer._plan_op(op)
            )
        else:
            estimator.ops_reused += 1
        sites = tuple(
            self._resolve_site(operand, plan.operand_shardings[i],
                               plan.required[i], plan.allowed_pending[i])
            for i, operand in enumerate(op.operands)
        )
        trailing = []
        for r, spec in enumerate(plan.trailing):
            if spec is None:
                trailing.append(None)
            else:
                sliced = opdefs.get("all_slice").infer(
                    [plan.result_types[r]], spec, []
                )[0]
                trailing.append(sliced.nbytes)
        alias = op.opcode in memory_mod.ALIASING_OPS
        results = tuple(op.results)
        if (all(site[1].steps == () and site[2] is None for site in sites)
                and not any(trailing)):
            # Fast-replay form for the overwhelmingly common op: every
            # operand already in the required layout (identity reconciles),
            # no trailing slices — the replay needs only uid bookkeeping.
            return ("op0", tuple(site[0] for site in sites), plan.flops,
                    plan.result_nbytes, results, alias)
        return ("op", sites, plan.flops, plan.result_nbytes, results,
                alias, tuple(trailing))

    def _resolve_loop(self, op) -> tuple:
        env = self.env
        body = op.regions[0]
        num_carries = op.attrs.get("num_carries", len(op.operands))
        operand_shardings = [
            env.sharding(body.params[i + 1]) for i in range(len(op.operands))
        ]
        carry_shardings = operand_shardings[:num_carries]
        sites = []
        for i, operand in enumerate(op.operands):
            required = {
                d: list(axes)
                for d, axes in enumerate(operand_shardings[i].dim_axes)
            }
            sites.append(self._resolve_site(operand, env.sharding(operand),
                                            required, set()))
        param_shardings = [Sharding.replicated(0)] + operand_shardings
        body_sink = CostSink(self.mesh, self.device)
        # Fresh dedup scope for the body lowering, as in a materializing
        # lowering's per-call lowerer (stale id()-keyed entries from an
        # earlier resolve must never alias a new sink).
        self._lowerer._reduce_cache = {}
        body_result: _StreamResult = self._lowerer.lower_function(
            body, body_sink,
            fixed_param_shardings=param_shardings,
            result_targets=carry_shardings,
        )
        cond_result: Optional[_StreamResult] = None
        if len(op.regions) > 1:
            cond = op.regions[1]
            cond_sink = CostSink(self.mesh, self.device)
            self._lowerer._reduce_cache = {}
            cond_result = self._lowerer.lower_function(
                cond, cond_sink,
                fixed_param_shardings=(
                    [Sharding.replicated(0)] + carry_shardings
                ),
                result_targets=[
                    Sharding.replicated(r.type.rank) for r in cond.results
                ],
            )
        carry_nbytes = tuple(
            self._local_type(op.operands[i], operand_shardings[i]).nbytes
            for i in range(num_carries)
        )
        tail_sites = []
        for i, result in enumerate(op.results):
            env_sharding = env.sharding(result)
            if env_sharding.dim_axes != carry_shardings[i].dim_axes:
                required = {
                    d: list(axes)
                    for d, axes in enumerate(env_sharding.dim_axes)
                }
                actual = dataclasses.replace(
                    carry_shardings[i], sum_axes=frozenset()
                )
                local = self._local_type(op.operands[i], actual)
                tail_sites.append(
                    (i,) + self._resolve_tail_site(local, actual, required)
                )
        # Same attrs the lowering would inject at emit time: the precomputed
        # term bundle is the single pricing all paths share.
        attrs = dict(op.attrs)
        attrs.update(pipeline_mod.pipeline_schedule_attrs(
            op, env, self.mesh
        ))
        terms = tuple(loop_cost_terms(
            attrs, body_result.estimate, self.device,
            cond_result.estimate if cond_result is not None else None,
        ))
        extra = memory_mod.loop_extra_bytes(
            attrs, body_result.peak_bytes, body_result.params_bytes
        )
        if cond_result is not None:
            extra += memory_mod.scan_body_extra_bytes(
                cond_result.peak_bytes, cond_result.params_bytes
            )
        return ("loop", tuple(sites), terms, carry_nbytes,
                tuple(op.results), tuple(tail_sites), extra, num_carries)

    def _resolve_tail_site(self, local_type, actual, required):
        """Like :meth:`_resolve_site` but for a scan result handle, whose
        local type is the carry's (not derivable from the result value)."""
        estimator = self.estimator
        rank = actual.rank
        required_t = tuple(tuple(required.get(d, ())) for d in range(rank))
        ar_axes = tuple(a for a in sorted(actual.sum_axes))
        chain_key = (local_type, actual.iid, required_t, ar_axes)
        entry = estimator._chains.get(chain_key)
        if entry is None:
            entry = estimator._miss_chain(
                chain_key,
                lambda: self._lowerer._record_chain(local_type, actual,
                                                    required, set()),
            )
        return (entry, None)

    # -- differential integration -------------------------------------------
    #
    # The per-evaluation O(|function|) replay is replaced by subtract-old/
    # add-new integration over the changed units only:
    #
    # * every unit's current segment is compiled into *records* — the exact
    #   live-range rows its replay would append, with symbolic operand
    #   references — and a *cost bundle*, the exact estimate terms it would
    #   add.  Bundles feed a persistent error-free accumulator
    #   (:class:`_CostAcc`): removing the stale bundle and adding the new
    #   one lands on the bit-identical correctly-rounded totals a full walk
    #   over the current segments would produce, because every path sums
    #   the same term multiset exactly.
    # * peak memory is maintained per unit as an integer (net, max-prefix)
    #   profile over the unit's records; cross-unit lifetimes enter through
    #   free events placed at each storage root's class-wide last use, and
    #   a :class:`~repro.sim.memory.PeakSegmentTree` combines the profiles
    #   into the global peak in O(log n) per dirty unit.  All-integer, so
    #   the result equals the reference :meth:`LiveRangeLog.peak_bytes`
    #   walk exactly.
    #
    # Symbolic operand references are ``("v", value)`` — the handle
    # exported for a program value, ``("k", reduce_key)`` — the
    # deduplicated pending-reduction owner's final handle, or
    # ``("d", def_id)`` — a unit-local definition.  Resolution follows
    # export/final indirections, registering every traversed value/key as
    # a dependency, so a unit re-resolves exactly when a handle it
    # consumes actually changed.

    def _pos_of(self, index: int) -> int:
        if index == self._PARAMS:
            return 0
        if index == self._RESULTS:
            return self._pos_results
        return index + 1

    def _segment_sites(self, pos: int) -> tuple:
        if pos == self._pos_results:
            return self._results_segment
        segment = self._current[pos - 1]
        tag = segment[0]
        if tag == "op" or tag == "loop":
            return segment[1]
        return ()

    def _integrate(self, changed_units) -> None:
        changed = {self._pos_of(index) for index in changed_units}
        # Phase 1: the pending-reduction dedup registry.  Ownership — which
        # site materializes a deduplicated reduction, exactly the first one
        # in replay order — is the one cross-unit coupling that changes
        # *records*, so an owner flip forces a rebuild of both ends.
        key_sites = self._key_sites
        keys_touched = set()
        for pos in changed:
            new_keys: Dict[tuple, int] = {}
            if pos:
                for ordinal, site in enumerate(self._segment_sites(pos)):
                    rkey = site[2]
                    if rkey is not None and rkey not in new_keys:
                        new_keys[rkey] = ordinal
            old_keys = self._unit_keys[pos]
            if new_keys != old_keys:
                for rkey, ordinal in old_keys.items():
                    if new_keys.get(rkey) != ordinal:
                        if rkey not in new_keys:
                            sites = key_sites.get(rkey)
                            if sites is not None:
                                sites.pop(pos, None)
                        keys_touched.add(rkey)
                for rkey, ordinal in new_keys.items():
                    if old_keys.get(rkey) != ordinal:
                        key_sites.setdefault(rkey, {})[pos] = ordinal
                        keys_touched.add(rkey)
                self._unit_keys[pos] = new_keys
        rebuild = set(changed)
        key_owner = self._key_owner
        for rkey in keys_touched:
            sites = key_sites.get(rkey)
            if not sites:
                key_sites.pop(rkey, None)
                key_owner.pop(rkey, None)
                self._finals.pop(rkey, None)
                continue
            owner = min(sites.items())
            old_owner = key_owner.get(rkey)
            if owner != old_owner:
                key_owner[rkey] = owner
                if old_owner is not None:
                    rebuild.add(old_owner[0])
                rebuild.add(owner[0])
        # Phase 2: rebuild records/bundles/exports for the rebuild set.
        touched_vals: set = set()
        touched_keys: set = set()
        removed: set = set()
        dirty_defs: set = set()
        profile_dirty: set = set()
        out_dirty = False
        for pos in rebuild:
            self._build_pos(pos, touched_vals, touched_keys, removed,
                            dirty_defs, profile_dirty)
        # Phase 3: units whose records survive but whose resolved operand
        # handles changed.
        resolve = set(rebuild)
        val_consumers = self._val_consumers
        for value in touched_vals:
            consumers = val_consumers.get(value)
            if consumers:
                resolve |= consumers
        key_consumers = self._key_consumers
        for rkey in touched_keys:
            consumers = key_consumers.get(rkey)
            if consumers:
                resolve |= consumers
        # Phase 4: resolution — uses, alias edges, definition positions.
        for pos in resolve:
            if self._resolve_pos(pos, dirty_defs, profile_dirty):
                out_dirty = True
        # Phase 5: retired definitions.  A consumer can only reference a
        # retired definition through an export/final that changed, so every
        # live reference was just re-resolved; what's left is registry
        # cleanup.
        for did in removed:
            self._def_nbytes.pop(did, None)
            self._def_pos.pop(did, None)
            self._uses.pop(did, None)
            self._last_use.pop(did, None)
            self._drop_free(did, profile_dirty)
            parent = self._parent.pop(did, None)
            if parent is not None:
                siblings = self._children.get(parent)
                if siblings:
                    siblings.discard(did)
                dirty_defs.add(parent)
            self._children.pop(did, None)
            if did in self._out_member:
                out_dirty = True
        # Phase 6: output storage roots (never freed, never dead-on-
        # arrival).  Recomputed only when the results resolution or an
        # alias edge on an output path moved.
        if out_dirty:
            self._recompute_out(dirty_defs, profile_dirty)
        # Phase 7: free events for every storage class that moved.
        self._update_frees(dirty_defs, removed, profile_dirty)
        # Phase 8: per-unit profiles into the peak segment tree.
        for pos in profile_dirty:
            self._recompute_profile(pos)

    def _build_pos(self, pos, touched_vals, touched_keys, removed,
                   dirty_defs, profile_dirty) -> None:
        denom = self._acc.denom
        reuse = iter(self._unit_dids[pos])
        new_dids: list = []
        def_nbytes = self._def_nbytes
        did_counter = self._did_counter

        def mk_def(nbytes: int) -> int:
            # Stable definition ids: reusing the unit's previous ids keeps
            # every registry entry (uses, alias edges, free events) valid
            # across a rebuild, so consumers are touched only when an
            # export genuinely moves.
            did = next(reuse, None)
            if did is None:
                did = next(did_counter)
                def_nbytes[did] = nbytes
                dirty_defs.add(did)
            elif def_nbytes[did] != nbytes:
                def_nbytes[did] = nbytes
                dirty_defs.add(did)
            new_dids.append(did)
            return did

        recs: list = []
        bundle: list = []
        exports: dict = {}
        finals: dict = {}
        key_owner = self._key_owner

        def emit_chain(entry, handle):
            for step in entry.steps:
                did = mk_def(step.nbytes)
                recs.append(((handle,), ((did, step.nbytes),),
                             step.alias, 0))
                if step.is_collective:
                    bundle.append(("cb", step.bytes_moved))
                    bundle.append(("cs", step.seconds))
                    bundle.append(("co", step.opcode, step.seconds))
                else:
                    bundle.append(("fl", step.flops))
                    bundle.append(("cp", step.flops / denom))
                handle = ("d", did)
            return handle

        def emit_site(site, ordinal):
            value, entry, rkey = site
            if rkey is not None and key_owner.get(rkey) != (pos, ordinal):
                return ("k", rkey)
            handle = emit_chain(entry, ("v", value))
            if rkey is not None:
                finals[rkey] = handle
            return handle

        if pos == 0:
            for param, nbytes in self._params_segment:
                did = mk_def(nbytes)
                recs.append(((), ((did, nbytes),), False, 0))
                exports[param] = ("d", did)
        elif pos == self._pos_results:
            self._out_refs = tuple(
                emit_site(site, ordinal)
                for ordinal, site in enumerate(self._results_segment)
            )
        else:
            segment = self._current[pos - 1]
            tag = segment[0]
            if tag == "alias":
                exports[segment[2]] = ("v", segment[1])
            elif tag == "op0":
                _, values, flops, result_nbytes, results, alias = segment
                defs = tuple(
                    (mk_def(nbytes), nbytes) for nbytes in result_nbytes
                )
                recs.append((tuple(("v", value) for value in values),
                             defs, alias, 0))
                bundle.append(("fl", flops))
                bundle.append(("cp", flops / denom))
                for r, result in enumerate(results):
                    exports[result] = ("d", defs[r][0])
            elif tag == "op":
                (_, sites, flops, result_nbytes, results, alias,
                 trailing) = segment
                operand_refs = tuple(
                    emit_site(site, ordinal)
                    for ordinal, site in enumerate(sites)
                )
                defs = tuple(
                    (mk_def(nbytes), nbytes) for nbytes in result_nbytes
                )
                recs.append((operand_refs, defs, alias, 0))
                bundle.append(("fl", flops))
                bundle.append(("cp", flops / denom))
                for r, result in enumerate(results):
                    handle = ("d", defs[r][0])
                    sliced_nbytes = trailing[r]
                    if sliced_nbytes is not None:
                        did = mk_def(sliced_nbytes)
                        recs.append(((handle,), ((did, sliced_nbytes),),
                                     False, 0))
                        bundle.append(("co", "all_slice", 0.0))
                        handle = ("d", did)
                    exports[result] = handle
            else:  # loop
                (_, sites, terms, carry_nbytes, results,
                 tail_sites, extra, _num_carries) = segment
                operand_refs = tuple(
                    emit_site(site, ordinal)
                    for ordinal, site in enumerate(sites)
                )
                defs = tuple(
                    (mk_def(nbytes), nbytes) for nbytes in carry_nbytes
                )
                recs.append((operand_refs, defs, False, extra))
                bundle.extend(terms)
                for i, result in enumerate(results):
                    exports[result] = ("d", defs[i][0])
                for tail in tail_sites:
                    index, entry = tail[0], tail[1]
                    exports[results[index]] = emit_chain(
                        entry, exports[results[index]]
                    )

        for did in reuse:
            removed.add(did)
        self._unit_dids[pos] = new_dids
        # Export/final diffs drive the touched set: a consumer re-resolves
        # exactly when a handle it reads maps to a different target.
        global_exports = self._exports
        old_exports = self._unit_exports[pos]
        for value, ref in exports.items():
            if old_exports.get(value) != ref:
                touched_vals.add(value)
                global_exports[value] = ref
        self._unit_exports[pos] = exports
        global_finals = self._finals
        old_finals = self._unit_finals[pos]
        for rkey, ref in finals.items():
            if old_finals.get(rkey) != ref:
                touched_keys.add(rkey)
            global_finals[rkey] = ref
        self._unit_finals[pos] = finals
        acc = self._acc
        acc.apply(self._bundles[pos], -1.0, -1)
        new_bundle = tuple(bundle)
        acc.apply(new_bundle, 1.0, 1)
        self._bundles[pos] = new_bundle
        self._recs[pos] = tuple(recs)
        profile_dirty.add(pos)

    def _resolve_pos(self, pos, dirty_defs, profile_dirty) -> bool:
        out_dirty = False
        uses = self._uses
        lu_dirty = set()
        for did in self._uses_by[pos]:
            entry = uses.get(did)
            if entry is not None and entry.pop(pos, None) is not None:
                lu_dirty.add(did)
        exports = self._exports
        finals = self._finals
        parent = self._parent
        children = self._children
        out_member = self._out_member
        def_pos = self._def_pos
        new_uses: dict = {}
        deps_val: set = set()
        deps_key: set = set()
        rops: list = []

        def resolve(ref):
            while True:
                kind = ref[0]
                if kind == "d":
                    return ref[1]
                if kind == "v":
                    deps_val.add(ref[1])
                    ref = exports[ref[1]]
                else:
                    deps_key.add(ref[1])
                    ref = finals[ref[1]]

        for ordinal, rec in enumerate(self._recs[pos]):
            operand_refs, defs, alias, _extra = rec
            resolved = []
            for ref in operand_refs:
                did = resolve(ref)
                resolved.append(did)
                if new_uses.get(did, -1) < ordinal:
                    new_uses[did] = ordinal
            rops.append(tuple(resolved))
            if alias:
                child = defs[0][0]
                new_parent = resolved[0]
                old_parent = parent.get(child)
                if old_parent != new_parent:
                    if old_parent is not None:
                        siblings = children.get(old_parent)
                        if siblings:
                            siblings.discard(child)
                        dirty_defs.add(old_parent)
                    parent[child] = new_parent
                    children.setdefault(new_parent, set()).add(child)
                    dirty_defs.add(new_parent)
                    dirty_defs.add(child)
                    if (child in out_member or new_parent in out_member
                            or old_parent in out_member):
                        out_dirty = True
            else:
                for did, _nbytes in defs:
                    old_parent = parent.pop(did, None)
                    if old_parent is not None:
                        siblings = children.get(old_parent)
                        if siblings:
                            siblings.discard(did)
                        dirty_defs.add(old_parent)
                        dirty_defs.add(did)
                        if did in out_member:
                            out_dirty = True
            for did, _nbytes in defs:
                def_pos[did] = (pos, ordinal)
        self._rops[pos] = tuple(rops)
        if pos == self._pos_results:
            # Output handles are read, not consumed: they pin storage roots
            # (out_roots) without extending any live range.
            self._out_handles = tuple(
                resolve(ref) for ref in self._out_refs
            )
            out_dirty = True
        for did, max_ordinal in new_uses.items():
            entry = uses.get(did)
            if entry is None:
                entry = uses[did] = {}
            if entry.get(pos) != max_ordinal:
                entry[pos] = max_ordinal
            lu_dirty.add(did)
        self._uses_by[pos] = new_uses
        last_use = self._last_use
        for did in lu_dirty:
            entry = uses.get(did)
            old = last_use.get(did)
            new = max(entry.items()) if entry else None
            if new != old:
                if new is None:
                    last_use.pop(did, None)
                else:
                    last_use[did] = new
                dirty_defs.add(did)
                if (old is None) != (new is None):
                    # Dead-on-arrival status flipped at the definition.
                    defined_at = def_pos.get(did)
                    if defined_at is not None:
                        profile_dirty.add(defined_at[0])
        old_vals = self._deps_val[pos]
        if deps_val != old_vals:
            val_consumers = self._val_consumers
            for value in old_vals - deps_val:
                consumers = val_consumers.get(value)
                if consumers:
                    consumers.discard(pos)
            for value in deps_val - old_vals:
                val_consumers.setdefault(value, set()).add(pos)
            self._deps_val[pos] = frozenset(deps_val)
        old_keys = self._deps_key[pos]
        if deps_key != old_keys:
            key_consumers = self._key_consumers
            for rkey in old_keys - deps_key:
                consumers = key_consumers.get(rkey)
                if consumers:
                    consumers.discard(pos)
            for rkey in deps_key - old_keys:
                key_consumers.setdefault(rkey, set()).add(pos)
            self._deps_key[pos] = frozenset(deps_key)
        return out_dirty

    def _recompute_out(self, dirty_defs, profile_dirty) -> None:
        parent = self._parent
        new_roots = set()
        member = set()
        for did in self._out_handles:
            node = did
            while True:
                member.add(node)
                up = parent.get(node)
                if up is None:
                    break
                node = up
            new_roots.add(node)
        old_roots = self._out_roots
        if new_roots != old_roots:
            def_pos = self._def_pos
            for did in new_roots ^ old_roots:
                dirty_defs.add(did)
                defined_at = def_pos.get(did)
                if defined_at is not None:
                    profile_dirty.add(defined_at[0])
            self._out_roots = new_roots
        self._out_member = member

    def _update_frees(self, dirty_defs, removed, profile_dirty) -> None:
        parent = self._parent
        def_nbytes = self._def_nbytes
        roots = set()
        for did in dirty_defs:
            if did in removed or did not in def_nbytes:
                continue
            if parent.get(did) is not None:
                # Not (or no longer) a storage root: an ex-root sheds its
                # free event, and its class re-checks at the actual root.
                self._drop_free(did, profile_dirty)
                node = did
                while parent.get(node) is not None:
                    node = parent[node]
                roots.add(node)
            else:
                roots.add(did)
        out_roots = self._out_roots
        last_use = self._last_use
        children = self._children
        frees = self._frees
        free_pos = self._free_pos
        for root in roots:
            if root in removed or root not in def_nbytes:
                continue
            if root in out_roots:
                self._drop_free(root, profile_dirty)
                continue
            # Class-wide last use: aliases extend their root's lifetime.
            best = None
            stack = [root]
            while stack:
                node = stack.pop()
                when = last_use.get(node)
                if when is not None and (best is None or when > best):
                    best = when
                kids = children.get(node)
                if kids:
                    stack.extend(kids)
            if best is None:
                self._drop_free(root, profile_dirty)
                continue
            size = def_nbytes[root]
            event = (best[0], best[1], size)
            if free_pos.get(root) != event:
                self._drop_free(root, profile_dirty)
                free_pos[root] = event
                frees[best[0]].setdefault(best[1], []).append((root, size))
                profile_dirty.add(best[0])

    def _drop_free(self, root, profile_dirty) -> None:
        event = self._free_pos.pop(root, None)
        if event is None:
            return
        pos, ordinal, size = event
        bucket = self._frees[pos].get(ordinal)
        if bucket is not None:
            try:
                bucket.remove((root, size))
            except ValueError:
                pass
            if not bucket:
                del self._frees[pos][ordinal]
        profile_dirty.add(pos)

    def _recompute_profile(self, pos) -> None:
        # The reference walk's exact per-record discipline: allocate
        # non-alias definitions, sample the peak (with a scan body's
        # transient spike riding on top), apply this record's free events,
        # then drop dead-on-arrival results.  Parameters stay live unless
        # a use frees their class downstream.
        uses = self._uses
        out_roots = self._out_roots
        frees = self._frees[pos]
        running = 0
        best = 0
        skip_doa = pos == 0
        for ordinal, rec in enumerate(self._recs[pos]):
            _operand_refs, defs, alias, extra = rec
            if not alias:
                for _did, nbytes in defs:
                    running += nbytes
                if extra:
                    transient = running + extra
                    if transient > best:
                        best = transient
                if running > best:
                    best = running
            bucket = frees.get(ordinal)
            if bucket:
                for _root, size in bucket:
                    running -= size
            if not alias and not skip_doa:
                for did, nbytes in defs:
                    if not uses.get(did) and did not in out_roots:
                        running -= nbytes
        self._tree.update(pos, running, best)


def estimate_streaming(function: Function, env, device: DeviceSpec,
                       overlap: bool = True) -> CostEstimate:
    """One-shot streaming estimate of ``function`` under ``env``: a fresh
    estimator's whole-function rebuild.

    Numerically identical — bit-for-bit, including the per-collective time
    breakdown and peak memory — to
    ``estimate(fuse_collectives(lower(function, env)), device)``, without
    materializing the device-local IR.
    """
    return StreamingEstimator(function, env.mesh, device).estimate_incremental(
        env, overlap=overlap
    )


def model_flops(function: Function) -> float:
    """Total FLOPs of the *global* (unpartitioned) program."""
    total = 0.0
    for op in function.ops:
        if op.opcode in opdefs.LOOP_OPS:
            for region in op.regions:
                total += model_flops(region) * op.attrs["trip_count"]
            continue
        opdef = opdefs.get(op.opcode)
        if opdef.flops:
            total += opdef.flops([v.type for v in op.operands], op.attrs)
    return total


def mfu(global_function: Function, step_time_s: float, num_devices: int,
        device: DeviceSpec) -> float:
    """Model FLOPS Utilization, per the paper's Appendix A.1 definition."""
    if step_time_s <= 0:
        return 0.0
    return 100.0 * model_flops(global_function) / (
        step_time_s * num_devices * device.peak_flops
    )
