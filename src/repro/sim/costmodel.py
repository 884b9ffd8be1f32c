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

One reference and one fast path produce identical numbers, because both
add the same cost terms — made and summed only in :mod:`repro.sim.terms` —
and append the same live-range records:

* :func:`estimate` — the reference — walks a materialized, fused
  device-local :class:`~repro.ir.function.Function` (the
  ``lower -> fuse_collectives -> estimate`` pipeline ``partir_jit`` runs
  anyway, since the executor needs real IR), and
* :meth:`StreamingEstimator.estimate_incremental` — the fast path the
  automatic-partitioning search uses — prices the lowering *stream*
  without ever allocating IR.  Per-op lowering plans and whole
  reconcile-chain costs are memoized on sharding signatures; an evaluation
  of a mutated env *refreshes* only the ops whose neighborhood changed
  (O(dirty)) and then *folds* the whole function once, replaying each op's
  precompiled segment plan into a :class:`~repro.sim.terms.TermSum` and a
  :class:`~repro.sim.memory.LiveRangeLog`.  A fresh estimator (or
  ``changed_values=None``) refreshes every op, which is what
  :func:`estimate_streaming` does.  :class:`CostSink` prices loop bodies
  and records reconcile chains for it, fusing collectives peephole-style
  as they are emitted.

Absolute numbers are not calibrated against real hardware (the paper makes
the same disclaimer); *relative* comparisons between schedules are the
product.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Tuple

from repro.core import pipeline as pipeline_mod
from repro.core.sharding import Sharding
from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.types import TensorType
from repro.mesh import Mesh
from repro.sim.devices import DeviceSpec
from repro.sim import memory as memory_mod
from repro.sim.memory import LiveRangeLog, peak_live_bytes
from repro.sim.terms import (CostEstimate, TermSum, collective_terms,
                             compute_terms, loop_cost_terms, op_terms,
                             split_terms)
from repro.spmd.fusion import single_axis_move
from repro.spmd.lower import LoweredModule, Lowerer


def _estimate_function(function: Function, mesh: Mesh, device: DeviceSpec,
                       overlap: bool = True) -> CostEstimate:
    acc = TermSum()
    for op in function.ops:
        if op.opcode in opdefs.LOOP_OPS:
            inner = _estimate_function(op.regions[0], mesh, device)
            cond = (_estimate_function(op.regions[1], mesh, device)
                    if len(op.regions) > 1 else None)
            acc.add(loop_cost_terms(op.attrs, inner, device, cond))
        else:
            acc.add(op_terms(op.opcode, op.attrs, op.operands, op.results,
                             mesh, device))
    return acc.total(overlap)


def estimate(lowered: LoweredModule, device: DeviceSpec,
             overlap: bool = True) -> CostEstimate:
    """Estimate one step of the partitioned program on ``device``."""
    result = _estimate_function(lowered.function, lowered.mesh, device,
                                overlap)
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
    step's result), so a step only needs its result and its cost terms —
    replay adds the same terms and the same
    :class:`~repro.sim.memory.LiveRangeLog` records bit-for-bit.
    """

    result_type: TensorType
    nbytes: int
    terms: tuple
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
        self._acc = TermSum()
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
        self._acc.add(compute_terms(plan.flops, self.device))
        self._log.add_op(
            [o.uid for o in operands],
            [(h.uid, b) for h, b in zip(handles, plan.result_nbytes)],
            alias=opcode in memory_mod.ALIASING_OPS,
        )
        return handles

    def finish(self, results, names) -> _StreamResult:
        self._flush_pending()
        peak = self._log.peak_bytes([r.uid for r in results])
        return _StreamResult(self._acc.total(), peak, self._params_bytes)

    # -- accounting ---------------------------------------------------------

    def _cost_op(self, opcode, operands, attrs, handles) -> None:
        terms = op_terms(opcode, attrs, operands, handles, self.mesh,
                         self.device)
        self._acc.add(terms)
        alias = opcode in memory_mod.ALIASING_OPS
        self._log.add_op(
            [o.uid for o in operands],
            [(h.uid, h.type.nbytes) for h in handles],
            alias=alias,
        )
        if self._record is not None:
            self._record.append(_ChainStep(
                handles[0].type, handles[0].type.nbytes, terms, alias,
            ))

    def replay_chain(self, value, entry: _ChainEntry):
        """Apply a recorded reconcile chain's cost effects to this sink.

        Reproduces exactly what emitting the chain would have done: the
        same cost terms and the same linear live-range records (chains
        consume their own previous step).  A chain that emitted anything
        consumed the one-step fusion window, so any pending collective is
        flushed first — the position the real emission path would have
        flushed it in."""
        if entry.did_emit:
            self._flush_pending()
        acc = self._acc
        handle = value
        for step in entry.steps:
            new = _StreamValue(step.result_type, next(self._uids))
            acc.add(step.terms)
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
        self._acc.add(loop_cost_terms(
            attrs, body.estimate, self.device,
            cond.estimate if cond is not None else None,
        ))
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
            entry = estimator._chains[chain_key] = self._record_chain(
                value.type, actual, required, allowed_pending)
            estimator.reconcile_misses += 1
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
            plan = plans[signature] = self._plan_op(op)
            estimator.ops_planned += 1
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
        # id(op) -> {adjacent-sharding iid tuple -> _OpPlan}.  Keying on
        # id() is safe: self.function keeps every op (and region op) alive.
        self._plans: Dict[int, Dict[tuple, object]] = {}
        # (value type, source layout iid, target layout, reduced axes) ->
        # _ChainEntry: whole reconcile-chain costs.
        self._chains: Dict[tuple, _ChainEntry] = {}
        #: Incremental re-estimation state bound to one mutable env (the
        #: undo-log rollout evaluator's); see :meth:`estimate_incremental`.
        self._inc: Optional["_IncrementalEstimate"] = None

    def __getstate__(self):
        """Pickle support for shipping the estimator to search workers.

        The memo tables are process-local (plans key on ``id(op)`` and
        intern ids; both rebuild lazily and cheaply), so they are dropped
        rather than serialized — the worker starts with warm code, cold
        caches."""
        state = self.__dict__.copy()
        state["_plans"] = {}
        state["_inc"] = None
        state["_chains"] = {}
        return state

    def estimate_incremental(self, env, changed_values=None,
                             overlap: bool = True) -> CostEstimate:
        """Exact re-estimation of one *mutable* env: O(changed ops) to
        refresh, one linear fold to sum.

        Built for the undo-log rollout evaluator: the caller owns a single
        env it extends and retracts in place (``checkpoint``/``rollback``)
        and passes the env's drained write journal as ``changed_values``.
        Only ops adjacent to a changed value refresh their cached *segment*
        (reconcile sites + cost terms + live-range records, keyed by the
        interned ids of the adjacent shardings); every op's current
        segment is then replayed, in program order, into one
        :class:`~repro.sim.terms.TermSum` and one live-range log — which
        is bit-identical to the materializing ``lower -> fuse_collectives
        -> estimate`` pipeline on every field, whatever the env's history.

        ``changed_values=None`` refreshes every op (always the case on the
        first call for an env).

        A non-None ``changed_values`` is only trusted when the env's
        journal actually covers every write since this estimator last
        synced with the env (checked against the monotone
        ``env.write_serial`` and the drain window): if the journal was
        never enabled, was drained by another party mid-search, or the env
        moved after the drain, units silently missing those writes would
        keep stale segments — so the call falls back to refreshing every
        op instead.
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
        result = inc.run(changed_values, overlap)
        inc.synced_serial = env.write_serial
        return result


class _UnitState:
    """Per-top-level-op incremental state: the values whose shardings key
    the unit's behavior and the memo of resolved segments."""

    __slots__ = ("op", "is_loop", "is_tag", "sig_values", "segments")

    def __init__(self, op, is_loop: bool, sig_values: tuple):
        self.op = op
        self.is_loop = is_loop
        self.is_tag = op.opcode == "tag"
        self.sig_values = sig_values
        self.segments: Dict[tuple, tuple] = {}


class _IncrementalEstimate:
    """Segment-cached replay of the streaming estimate for one mutable env.

    A whole-function lowering walk spends its time *resolving*: rebuilding
    per-op signature keys, fetching plans, recomputing reconcile targets
    and re-pricing chains.  For a single env mutated in place between
    evaluations, almost none of that changes — so this class splits
    evaluation into:

    * **refresh** (dirty ops only): recompute the op's interned-signature
      key and look up / build its *segment* — the op's replay plan
      (:meth:`_segment`): its operand reconcile sites (with their
      pending-reduction dedup keys), its pre-split cost terms and the
      live-range records it appends.  Segments are memoized per signature,
      so toggling between explored search branches re-hits old segments
      instead of re-resolving.
    * **replay** (every op, in program order — the one fold): extend a
      fresh :class:`~repro.sim.terms.TermSum` and
      :class:`~repro.sim.memory.LiveRangeLog` with each segment.  The term
      multiset and the record sequence are the full walk's, so results are
      bit-identical.

    Cross-op couplings are re-established per replay, exactly as the full
    walk does per evaluation: pending reductions deduplicate through a
    fresh per-evaluation seen-map (first materializing site pays), and
    peak memory comes from the freshly spliced log.
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
        #: value -> sharding iid its adjacent units' segments reflect.  A
        #: journaled write whose value is back on the recorded sharding
        #: (rollback + re-extension along a shared prefix lands most
        #: values exactly where they were) dirties nothing — the sig
        #: rebuild over thousands of round-tripped units is the refresh
        #: loop's dominant cost on deep rollouts.
        self._seen_iids: Dict[object, int] = {}
        #: Source of the stable uids segments carry (see :meth:`_replay`).
        self._uid = itertools.count()
        #: Whole-state result memo for :meth:`_replay`: segment identity
        #: fingerprint -> (estimate, site hits).  MCTS revisits whole
        #: states constantly (permuted action chains commute to the same
        #: env state), and the replay output is a pure function of the
        #: segment instances, so a fingerprint hit skips the replay
        #: outright.  Bounded: cleared wholesale when it grows past 1024
        #: states (keys hold one id per unit, so entries are not free).
        self._memo: Dict[tuple, tuple] = {}
        #: Env write serial the segments reflect (see
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
        if changed_values is None:
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
        # kept free of method-call overhead.
        estimator = self.estimator
        current = self._current
        for index in dirty:
            if index == self._PARAMS:
                self._refresh_params()
                continue
            if index == self._RESULTS:
                self._refresh_results()
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
            current[index] = segment
        return self._replay(overlap)

    # -- replay -------------------------------------------------------------

    def _replay(self, overlap: bool) -> CostEstimate:
        """The one fold: whole-function replay over the memoized segments.

        Segments carry *stable* uids: def pairs, chain records past the
        first hop, trailing records and the pre-split cost terms are
        pre-built tuples, so a replay is mostly ``list.extend`` calls —
        only the operand-uid tuples (which depend on which segments
        produced the operands *this* evaluation) are rebuilt.  Stable,
        sparse uids are safe: :meth:`LiveRangeLog.peak_bytes` keys every
        table by uid and never assumes density, and record *order* (which
        the peak walk does depend on) is byte-for-byte the streaming
        walk's.
        """
        # Whole-state fingerprint: segments are memoized per signature
        # (and never dropped, so ids are never recycled) — identical env
        # states present identical instances, and two id-equal
        # fingerprints replay to the same estimate, bit for bit.
        memo = self._memo
        memo_key = (overlap, id(self._params_segment),
                    id(self._results_segment), tuple(map(id, self._current)))
        hit = memo.get(memo_key)
        if hit is None:
            if len(memo) >= 1024:
                memo.clear()
            hit = memo[memo_key] = self._fold(overlap)
        est, site_hits = hit
        self.estimator.reconcile_hits += site_hits
        # The memoized instance stays pristine: callers own their result.
        return dataclasses.replace(
            est, collective_time_s=dict(est.collective_time_s))

    def _fold(self, overlap: bool) -> Tuple[CostEstimate, int]:
        acc = TermSum()
        add_parts = acc.extend
        log = LiveRangeLog()
        ops_append = log._ops.append
        ops_extend = log._ops.extend
        value_uids: Dict[object, int] = {}
        uid_get = value_uids.__getitem__
        reduce_seen: Dict[tuple, int] = {}
        site_hits = 0

        def replay_site(site) -> int:
            value, reduce_key, chain = site
            if chain is None:
                # In-layout operand: the producer's export is the handle.
                return value_uids[value]
            if reduce_key is not None:
                cached = reduce_seen.get(reduce_key)
                if cached is not None:
                    return cached
            first_def, first_alias, statics, parts, final = chain
            # Only the first hop's operand is dynamic; the rest of the
            # chain consumes its own stable uids and is replayed verbatim.
            ops_append(((value_uids[value],), first_def, first_alias, 0))
            if statics:
                ops_extend(statics)
            if parts:
                add_parts(parts)
            if reduce_key is not None:
                reduce_seen[reduce_key] = final
            return final

        pairs, items = self._params_segment
        log._params.extend(pairs)
        value_uids.update(items)
        for segment in self._current:
            kind = segment[0]
            if kind == "op0":
                # All operands already in layout, nothing chained after.
                _, values, defs, alias, parts, result_items = segment
                site_hits += len(values)
                ops_append((tuple(map(uid_get, values)), defs, alias, 0))
            elif kind == "op":
                (_, sites, defs, alias, extra, parts, tail_records,
                 result_items) = segment
                site_hits += len(sites)
                operand_uids = tuple([replay_site(s) for s in sites])
                ops_append((operand_uids, defs, alias, extra))
                if tail_records:
                    ops_extend(tail_records)
            else:
                # Transparent tag marker: no cost, no live-range record.
                value_uids[segment[2]] = value_uids[segment[1]]
                continue
            if parts:
                add_parts(parts)
            for result, uid in result_items:
                value_uids[result] = uid
        sites = self._results_segment
        site_hits += len(sites)
        result_uids = [replay_site(s) for s in sites]
        est = acc.total(overlap)
        est.peak_memory_bytes = log.peak_bytes(result_uids)
        return est, site_hits

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
            # Log records and value -> uid exports.
            env = self.env
            uids = [next(self._uid) for _ in function.params]
            segment = self._params_segments[sig] = (
                tuple(
                    (uid, self._local_type(p, env.sharding(p)).nbytes)
                    for p, uid in zip(function.params, uids)
                ),
                tuple(zip(function.params, uids)),
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
        """One operand-reconciliation site — the exact mirror of
        :meth:`_MemoLowerer._reconcile`'s key computation — as its replay
        plan ``(value, pending-reduction dedup key or None, chain)``:
        ``chain`` is None for an in-layout operand, else the pre-built
        first-hop def, the static records past it, the chain's pre-split
        cost terms and its final (export) uid."""
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
            entry = estimator._chains[chain_key] = \
                self._lowerer._record_chain(local, actual, required,
                                            allowed_pending)
            estimator.reconcile_misses += 1
        else:
            estimator.reconcile_hits += 1
        reduce_key = (value, ar_axes, required_t) if ar_axes else None
        if not entry.steps:
            return (value, reduce_key, None)
        records = []
        prev = -1
        for step in entry.steps:
            uid = next(self._uid)
            records.append(((prev,), ((uid, step.nbytes),), step.alias, 0))
            prev = uid
        _, first_def, first_alias, _ = records[0]
        parts = split_terms(
            term for step in entry.steps for term in step.terms)
        return (value, reduce_key,
                (first_def, first_alias, tuple(records[1:]), parts, prev))

    def _segment(self, sites, terms, def_nbytes, results, alias: bool,
                 extra: int, tails) -> tuple:
        """One op's replay plan: its reconcile ``sites``, its own cost
        ``terms`` (pre-split), the record defining one handle per entry of
        ``results`` (``def_nbytes``, ``alias`` flag, transient ``extra``)
        and, per ``(result index, records)`` of ``tails``, the ``(nbytes,
        alias)`` records chained after that result — a trailing
        ``all_slice``, or a loop result's reconcile chain."""
        parts = split_terms(terms)
        defs = tuple((next(self._uid), nbytes) for nbytes in def_nbytes)
        exports = [uid for uid, _ in defs]
        tail_records = []
        for index, records in tails:
            for nbytes, tail_alias in records:
                uid = next(self._uid)
                tail_records.append(
                    ((exports[index],), ((uid, nbytes),), tail_alias, 0))
                exports[index] = uid
        result_items = tuple(zip(results, exports))
        if not tails and not extra and all(
                chain is None and reduce_key is None
                for _, reduce_key, chain in sites):
            # Fast-replay form for the overwhelmingly common op: every
            # operand already in the required layout (identity reconciles)
            # — the replay needs only uid bookkeeping.
            return ("op0", tuple(site[0] for site in sites), defs, alias,
                    parts, result_items)
        return ("op", tuple(sites), defs, alias, extra, parts,
                tuple(tail_records), result_items)

    def _resolve_plain(self, op, sig: tuple) -> tuple:
        estimator = self.estimator
        plans = estimator._plans.get(id(op))
        if plans is None:
            plans = estimator._plans[id(op)] = {}
        plan = plans.get(sig)
        if plan is None:
            plan = plans[sig] = self._lowerer._plan_op(op)
            estimator.ops_planned += 1
        else:
            estimator.ops_reused += 1
        sites = tuple(
            self._resolve_site(operand, plan.operand_shardings[i],
                               plan.required[i], plan.allowed_pending[i])
            for i, operand in enumerate(op.operands)
        )
        terms = list(compute_terms(plan.flops, self.device))
        tails = []
        for r, spec in enumerate(plan.trailing):
            if spec is not None:
                full = plan.result_types[r]
                sliced = opdefs.get("all_slice").infer([full], spec, [])[0]
                terms += collective_terms("all_slice", spec, full.nbytes,
                                          sliced.nbytes, self.mesh,
                                          self.device)
                tails.append((r, ((sliced.nbytes, False),)))
        return self._segment(sites, terms, plan.result_nbytes, op.results,
                             op.opcode in memory_mod.ALIASING_OPS, 0, tails)

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
        # Same attrs the lowering would inject at emit time.
        attrs = dict(op.attrs)
        attrs.update(pipeline_mod.pipeline_schedule_attrs(
            op, env, self.mesh
        ))
        terms = loop_cost_terms(
            attrs, body_result.estimate, self.device,
            cond_result.estimate if cond_result is not None else None,
        )
        tails = []
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
                steps = self._resolve_tail(local, actual, required).steps
                for step in steps:
                    terms += step.terms
                tails.append(
                    (i, tuple((step.nbytes, step.alias) for step in steps)))
        extra = memory_mod.loop_extra_bytes(
            attrs, body_result.peak_bytes, body_result.params_bytes
        )
        if cond_result is not None:
            extra += memory_mod.scan_body_extra_bytes(
                cond_result.peak_bytes, cond_result.params_bytes
            )
        return self._segment(sites, terms, carry_nbytes, op.results, False,
                             extra, tails)

    def _resolve_tail(self, local_type, actual, required) -> _ChainEntry:
        """The reconcile chain after a loop result handle, whose local type
        is the carry's (not derivable from the result value)."""
        estimator = self.estimator
        rank = actual.rank
        required_t = tuple(tuple(required.get(d, ())) for d in range(rank))
        ar_axes = tuple(a for a in sorted(actual.sum_axes))
        chain_key = (local_type, actual.iid, required_t, ar_axes)
        entry = estimator._chains.get(chain_key)
        if entry is None:
            entry = estimator._chains[chain_key] = \
                self._lowerer._record_chain(local_type, actual, required,
                                            set())
            estimator.reconcile_misses += 1
        return entry


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
