"""The analytical cost model / simulator (Appendix A.3).

"Our simulator iterates over each SPMD context, tracks the live memory, and
counts flops usage; for the communication ops it also tracks the byte
transfers" — this module does exactly that over device-local programs:

* compute time  = local FLOPs / (peak FLOPs x efficiency),
* collective time from standard ring-style byte costs over the mesh axes the
  collective spans,
* step time = max(compute, comm): collectives run concurrently with
  compute (per-collective launch latencies included in comm),
* peak memory from live-range analysis (:mod:`repro.sim.memory`).

One reference and one fast path produce identical numbers, because both
add the same cost terms — made and summed only in :mod:`repro.sim.terms` —
and append the same live-range records:

* :func:`estimate` — the reference — walks a materialized, fused
  device-local :class:`~repro.ir.function.Function` (the ``lower ->
  estimate`` pipeline ``partir_jit`` runs anyway, since the executor needs
  real IR; :func:`~repro.spmd.lower.lower` emits its reconcile chains
  already fused), and
* :meth:`StreamingEstimator.estimate_incremental` — the fast path the
  automatic-partitioning search uses — prices the lowerer's *plans*
  (:meth:`~repro.spmd.lower.Lowerer._plan_op` / ``_plan_loop``) without
  lowering the program.  Op plans come from the function's plan table
  (:func:`~repro.spmd.lower.plan_table`), the one :func:`lower` also
  reads and fills, so L identical layers are planned once and a final
  lowering re-plans nothing the search saw.  Per-op segments (an op's
  plan, priced) and whole reconcile-chain costs are memoized on sharding
  signatures; an
  evaluation of a mutated env *refreshes* only the ops whose neighborhood
  changed (O(dirty)) and then *folds* the whole function once, replaying
  each op's precompiled segment into a :class:`~repro.sim.terms.TermSum`
  and a :class:`~repro.sim.memory.LiveRangeLog`; loop regions are priced
  by the same refresh and fold, recursively.  A fresh estimator (or
  ``changed_values=None``) refreshes every op.  This module emits
  nothing, infers no type and fuses nothing: a plan carries its
  operands' fused reconcile chains (decided by
  :meth:`~repro.spmd.lower.Lowerer._reconcile`, shared through the
  function's :func:`~repro.spmd.lower.chain_table` with every lowering),
  its FLOPs and its local result and trailing-slice types, and each
  chain step is priced with the reference's
  :func:`~repro.sim.terms.collective_terms`.

Absolute numbers are not calibrated against real hardware (the paper makes
the same disclaimer); *relative* comparisons between schedules are the
product.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Tuple

from repro.ir import opdefs
from repro.ir.function import Function
from repro.mesh import Mesh
from repro.sim.devices import DeviceSpec
from repro.sim import memory as memory_mod
from repro.sim.memory import LiveRangeLog, peak_live_bytes
from repro.sim.terms import (CostEstimate, TermSum, collective_terms,
                             compute_terms, loop_cost_terms, op_terms,
                             split_terms)
from repro.spmd.lower import LoweredModule, Lowerer, required_of


def _estimate_function(function: Function, mesh: Mesh,
                       device: DeviceSpec) -> CostEstimate:
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
    return acc.total()


def estimate(lowered: LoweredModule, device: DeviceSpec) -> CostEstimate:
    """Estimate one step of the partitioned program on ``device``."""
    result = _estimate_function(lowered.function, lowered.mesh, device)
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
    bounded below by zero and ``runtime = max(compute, comm) >=
    compute``, while the out-of-memory penalty of :func:`search_objective` is
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


# -- the search's estimator --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ChainStep:
    """One fused collective of a recorded reconcile chain.

    The chain is linear (each step consumes the previous step's result) and
    collectives never alias, so a step is its result size and its cost
    terms — replay adds the same terms and the same
    :class:`~repro.sim.memory.LiveRangeLog` records as walking the fused
    chain would.
    """

    nbytes: int
    terms: tuple


class StreamingEstimator:
    """``lower -> estimate``, priced from lowering *plans* without
    materializing the program.

    Built for one mutable env evaluated thousands of times (the MCTS's):
    per-op *segments* — the op's lowering plan, priced — are memoized on
    the interned ids of the op's adjacent shardings while the estimator
    stays bound to that env, and the device's terms of each reconcile
    chain for its lifetime, so a state that differs from a seen one only
    on part of the program re-prices only that part.  A segment miss takes
    its plan, chains included, from the function's plan table, shared
    with :func:`lower`.  ``ops_reused`` / ``ops_planned`` count segment
    hits and misses, ``reconcile_hits`` / ``reconcile_misses`` the chain
    memo's (plus, per fold, every reconcile site replayed).
    """

    def __init__(self, function: Function, mesh: Mesh, device: DeviceSpec):
        self.function = function
        self.mesh = mesh
        self.device = device
        self.ops_planned = 0
        self.ops_reused = 0
        self.reconcile_hits = 0
        self.reconcile_misses = 0
        #: The function's shared chains (spmd.lower._Chain), priced on
        #: this estimator's device: chain -> its _ChainSteps.
        self._chains: Dict[object, Tuple[_ChainStep, ...]] = {}
        #: Incremental re-estimation state bound to one mutable env (the
        #: undo-log rollout evaluator's); see :meth:`estimate_incremental`.
        self._inc: Optional["_IncrementalEstimate"] = None

    def estimate_incremental(self, env, changed_values=None) -> CostEstimate:
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
        is bit-identical to the materializing ``lower -> estimate``
        pipeline on every field, whatever the env's history.

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
        result = inc.run(changed_values)
        inc.synced_serial = env.write_serial
        return result


class _UnitState:
    """Per-op state: the values whose shardings key the unit's behavior,
    the memo of resolved segments and, for a loop op, its regions."""

    __slots__ = ("op", "is_tag", "sig_values", "segments", "regions")

    def __init__(self, op):
        self.op = op
        self.is_tag = op.opcode == "tag"
        self.regions = tuple(_Region(region) for region in op.regions)
        #: A loop's lowering reads the whole body (cond included), so its
        #: segment keys on — and is invalidated by — every subtree value
        #: (region ops read only values their region defines; pipeline
        #: pins land on these too).
        self.sig_values = tuple(op.operands) + tuple(op.results) + tuple(
            value for region in op.regions for value in region.index.values)
        self.segments: Dict[tuple, tuple] = {}


class _Region:
    """One function the fold prices — the program or a loop region: a unit
    per op, the segment currently in force per unit (in program order —
    the list the fold iterates; refresh rewrites entries) and the memos of
    its boundary segments (parameter records; result reconcile sites)."""

    __slots__ = ("function", "units", "current", "params", "results")

    def __init__(self, function: Function):
        self.function = function
        self.units = [_UnitState(op) for op in function.ops]
        self.current: List[Optional[tuple]] = [None] * len(self.units)
        self.params: Dict[tuple, tuple] = {}
        self.results: Dict[tuple, tuple] = {}


class _IncrementalEstimate:
    """Segment-cached resolve-and-fold of the estimate for one mutable env.

    Pricing a lowering spends its time *resolving*: rebuilding per-op
    signature keys, fetching plans, recomputing reconcile targets and
    pricing chains.  For a single env mutated in place between
    evaluations, almost none of that changes — so evaluation splits into:

    * **refresh** (dirty ops only): recompute the op's interned-signature
      key and look up / build its *segment* — the op's replay plan
      (:meth:`_segment`): its operand reconcile sites (with their
      pending-reduction dedup keys), its pre-split cost terms and the
      live-range records it appends.  Segments are memoized per signature,
      so toggling between explored search branches re-hits old segments
      instead of re-resolving.
    * **fold** (every op, in program order): extend a fresh
      :class:`~repro.sim.terms.TermSum` and
      :class:`~repro.sim.memory.LiveRangeLog` with each segment.  The term
      multiset and the record sequence are those of walking the fused
      lowering, so results are bit-identical.

    A loop op's segment comes from the same two steps applied to its
    regions (:meth:`_price`, recursive for nested loops) under the layouts
    :meth:`~repro.spmd.lower.Lowerer._plan_loop` decides; region ops keep
    their own per-signature segments, so a loop whose body changed in one
    place re-resolves one body op.

    Cross-op couplings are re-established per fold, exactly as a lowering
    does per function: pending reductions deduplicate through a fresh
    seen-map (first materializing site pays; one scope per region), and
    peak memory comes from the freshly spliced log.
    """

    def __init__(self, estimator: StreamingEstimator, env):
        self.estimator = estimator
        self.env = env
        self.mesh = estimator.mesh
        self.device = estimator.device
        #: Asked for plans only; it never emits.  It reads and fills the
        #: function's plan table, shared with every lower() of it.
        self._lowerer = Lowerer(env, estimator.function)
        self._top = _Region(estimator.function)
        #: value -> tuple of top-level unit indices to refresh when it
        #: changes.
        self._adjacent: Dict[object, tuple] = {}
        for index, unit in enumerate(self._top.units):
            for value in unit.sig_values:
                existing = self._adjacent.get(value, ())
                if not existing or existing[-1] != index:
                    self._adjacent[value] = existing + (index,)
        #: value -> sharding iid its adjacent units' segments reflect.  A
        #: journaled write whose value is back on the recorded sharding
        #: (rollback + re-extension along a shared prefix lands most
        #: values exactly where they were) dirties nothing — the sig
        #: rebuild over thousands of round-tripped units is the refresh
        #: loop's dominant cost on deep rollouts.
        self._seen_iids: Dict[object, int] = {}
        #: Source of the stable uids segments carry (see :meth:`_fold`).
        self._uid = itertools.count()
        #: Env write serial the segments reflect (see
        #: :meth:`StreamingEstimator.estimate_incremental`'s coverage gate).
        self.synced_serial = -1

    # -- refresh ------------------------------------------------------------

    def run(self, changed_values) -> CostEstimate:
        sharding = self.env.sharding
        top = self._top
        if changed_values is None:
            dirty = range(len(top.units))
            self._seen_iids = {
                value: sharding(value)._iid for value in self._adjacent
            }
        else:
            # Direct probe of the env's store, with sharding() supplying
            # the replicated default on a miss: this loop touches tens of
            # thousands of values per evaluation, so the method-call frame
            # is pure overhead on the hit path.
            stored_get = self.env._shardings.get
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
                dirty.update(adjacent.get(value, ()))
        self._refresh(top, dirty)
        boundary = self._boundary(
            top, [sharding(p) for p in top.function.params], None)
        est, peak, site_hits = self._fold(boundary, top.current)
        est.peak_memory_bytes = peak
        self.estimator.reconcile_hits += site_hits
        return est

    def _refresh(self, region: _Region, indices) -> None:
        """Bring ``region.current[i]`` up to the env for each ``i``."""
        # Inline: this loop runs for every dirty op on every evaluation,
        # so the common hit path (sig rebuild -> memo get) is kept free of
        # method-call overhead.  Every env-stored sharding is the canonical
        # interned instance (set_sharding interns; the replicated default
        # is interned at construction), hence the direct _iid reads.
        estimator = self.estimator
        sharding = self.env.sharding
        stored_get = self.env._shardings.get
        units = region.units
        current = region.current
        for index in indices:
            unit = units[index]
            sig = tuple([
                s._iid if (s := stored_get(v)) is not None
                else sharding(v)._iid
                for v in unit.sig_values
            ])
            segment = unit.segments.get(sig)
            if segment is None:
                if unit.regions:
                    segment = self._resolve_loop(unit)
                elif unit.is_tag and sig[0] == sig[1]:
                    # Transparent tag marker: the same skip the lowerer
                    # applies — the result aliases the operand.
                    segment = ("alias", unit.op.operands[0],
                               unit.op.results[0])
                else:
                    segment = self._resolve_plain(unit.op)
                unit.segments[sig] = segment
            else:
                estimator.ops_reused += 1
            current[index] = segment

    # -- fold ---------------------------------------------------------------

    def _price(self, region: _Region, param_shardings,
               result_targets) -> Tuple[CostEstimate, int, int]:
        """``(estimate, peak bytes, parameter bytes)`` of one run of a
        loop region lowered under fixed parameter layouts and result
        targets — the same refresh and fold the program gets."""
        self._refresh(region, range(len(region.units)))
        boundary = self._boundary(region, param_shardings, result_targets)
        est, peak, _ = self._fold(boundary, region.current)
        return est, peak, sum(nbytes for _, nbytes in boundary[0][0])

    def _fold(self, boundary: tuple,
              segments) -> Tuple[CostEstimate, int, int]:
        """The one fold: replay a function's boundary and op segments.

        Segments carry *stable* uids: def pairs, chain records past the
        first hop, trailing records and the pre-split cost terms are
        pre-built tuples, so a fold is mostly ``list.extend`` calls —
        only the operand-uid tuples (which depend on which segments
        produced the operands *this* evaluation) are rebuilt.  Stable,
        sparse uids are safe: :meth:`LiveRangeLog.peak_bytes` keys every
        table by uid and never assumes density, and record *order* (which
        the peak walk does depend on) is byte-for-byte that of the fused
        lowering's op list.
        """
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
            first_def, statics, parts, final = chain
            # Only the first hop's operand is dynamic; the rest of the
            # chain consumes its own stable uids and is replayed verbatim.
            ops_append(((value_uids[value],), first_def, False, 0))
            if statics:
                ops_extend(statics)
            if parts:
                add_parts(parts)
            if reduce_key is not None:
                reduce_seen[reduce_key] = final
            return final

        (pairs, items), sites = boundary
        log._params.extend(pairs)
        value_uids.update(items)
        for segment in segments:
            kind = segment[0]
            if kind == "op0":
                # All operands already in layout, nothing chained after.
                _, values, defs, alias, parts, result_items = segment
                site_hits += len(values)
                ops_append((tuple(map(uid_get, values)), defs, alias, 0))
            elif kind == "op":
                (_, op_sites, defs, alias, extra, parts, tail_records,
                 result_items) = segment
                site_hits += len(op_sites)
                operand_uids = tuple([replay_site(s) for s in op_sites])
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
        site_hits += len(sites)
        result_uids = [replay_site(s) for s in sites]
        return acc.total(), log.peak_bytes(result_uids), site_hits

    def _boundary(self, region: _Region, param_shardings,
                  result_targets) -> tuple:
        """A function's two boundary segments, each memoized on its own
        signature: ``(parameter log records, value -> uid exports of the
        params)`` under ``param_shardings``, and one reconcile site per
        result (to ``result_targets``, or by default to the env sharding
        with every pending sum materialized — outputs are never partial)."""
        function = region.function
        key = tuple([s.iid for s in param_shardings])
        params = region.params.get(key)
        if params is None:
            uids = [next(self._uid) for _ in function.params]
            params = region.params[key] = (
                tuple(
                    (uid, self._local_type(p, s).nbytes)
                    for p, s, uid
                    in zip(function.params, param_shardings, uids)
                ),
                tuple(zip(function.params, uids)),
            )
        sharding = self.env.sharding
        actuals = [sharding(r) for r in function.results]
        key = (tuple([s._iid for s in actuals]),
               None if result_targets is None
               else tuple([s.iid for s in result_targets]))
        sites = region.results.get(key)
        if sites is None:
            if result_targets is None:
                result_targets = [a.without_sum(a.sum_axes) for a in actuals]
            sites = region.results[key] = tuple(
                self._resolve_site(result, self._chain(
                    result, actual, required_of(target)))
                for result, actual, target
                in zip(function.results, actuals, result_targets)
            )
        return params, sites

    # -- resolution ---------------------------------------------------------

    def _local_type(self, value, sharding):
        return value.type.with_shape(
            sharding.local_shape(value.type.shape, self.mesh)
        )

    def _chain(self, value, actual, required):
        """The lowerer's chain reconciling ``value``, laid out per
        ``actual``, to ``required`` with every pending sum materialized
        (a loop operand or tail, a function result), or ``None``."""
        return self._lowerer._chain(self._local_type(value, actual), actual,
                                    required, ())

    def _priced(self, chain) -> Tuple[_ChainStep, ...]:
        """``chain``'s steps priced on this estimator's device, memoized
        per chain (the chain itself — decided once — comes from the
        function's chain table, the one every :func:`lower` of the
        function instantiates), by the reference's
        :func:`~repro.sim.terms.collective_terms` (every step is a
        collective)."""
        estimator = self.estimator
        steps = estimator._chains.get(chain)
        if steps is None:
            priced = []
            nbytes = chain.source.nbytes
            for opcode, attrs, result_type in chain.steps:
                priced.append(_ChainStep(result_type.nbytes, collective_terms(
                    opcode, attrs, nbytes, result_type.nbytes, self.mesh,
                    self.device)))
                nbytes = result_type.nbytes
            steps = estimator._chains[chain] = tuple(priced)
            estimator.reconcile_misses += 1
        else:
            estimator.reconcile_hits += 1
        return steps

    def _resolve_site(self, value, chain):
        """One operand-reconciliation site — ``value`` through ``chain``
        — as its replay plan ``(value, pending-reduction dedup key or
        None, chain)``: ``chain`` is None for an in-layout operand, else
        the pre-built first-hop def, the static records past it, the
        chain's pre-split cost terms and its final (export) uid."""
        if chain is None:
            return (value, None, None)
        steps = self._priced(chain)
        # Same dedup contract as the lowerer's reduce cache: a pending
        # reduction of one value to one layout is materialized once per
        # function (one reduce_scatter per gradient).
        reduce_key = ((value, chain.reduced, chain.required)
                      if chain.reduced else None)
        records = []
        prev = -1
        for step in steps:
            uid = next(self._uid)
            records.append(((prev,), ((uid, step.nbytes),), False, 0))
            prev = uid
        parts = split_terms(term for step in steps for term in step.terms)
        return (value, reduce_key,
                (records[0][1], tuple(records[1:]), parts, prev))

    def _segment(self, sites, terms, def_nbytes, results, alias: bool,
                 extra: int, tails) -> tuple:
        """One op's replay plan: its reconcile ``sites``, its own cost
        ``terms`` (pre-split), the record defining one handle per entry of
        ``results`` (``def_nbytes``, ``alias`` flag, transient ``extra``)
        and, per ``(result index, sizes)`` of ``tails``, the records
        chained after that result — a trailing ``all_slice``, or a loop
        result's reconcile chain."""
        parts = split_terms(terms)
        defs = tuple((next(self._uid), nbytes) for nbytes in def_nbytes)
        exports = [uid for uid, _ in defs]
        tail_records = []
        for index, sizes in tails:
            for nbytes in sizes:
                uid = next(self._uid)
                tail_records.append(
                    ((exports[index],), ((uid, nbytes),), False, 0))
                exports[index] = uid
        result_items = tuple(zip(results, exports))
        if not tails and not extra and all(
                chain is None and reduce_key is None
                for _, reduce_key, chain in sites):
            # Fast-replay form for the overwhelmingly common op: every
            # operand already in the required layout (identity reconciles)
            # — the fold needs only uid bookkeeping.
            return ("op0", tuple(site[0] for site in sites), defs, alias,
                    parts, result_items)
        return ("op", tuple(sites), defs, alias, extra, parts,
                tuple(tail_records), result_items)

    def _resolve_plain(self, op) -> tuple:
        plan = self._lowerer._plan_op(op)
        self.estimator.ops_planned += 1
        sites = tuple(self._resolve_site(operand, chain)
                      for operand, chain in zip(op.operands, plan.chains))
        terms = list(compute_terms(plan.flops, self.device))
        tails = []
        for r, (full, trailing) in enumerate(
                zip(plan.result_types, plan.trailing)):
            if trailing is not None:
                spec, (sliced,) = trailing
                terms += collective_terms("all_slice", spec, full.nbytes,
                                          sliced.nbytes, self.mesh,
                                          self.device)
                tails.append((r, (sliced.nbytes,)))
        return self._segment(sites, terms,
                             [t.nbytes for t in plan.result_types],
                             op.results,
                             op.opcode in memory_mod.ALIASING_OPS, 0, tails)

    def _resolve_loop(self, unit: _UnitState) -> tuple:
        op = unit.op
        plan = self._lowerer._plan_loop(op)
        sites = tuple(
            self._resolve_site(operand, self._chain(
                operand, plan.operand_shardings[i], plan.required[i]))
            for i, operand in enumerate(op.operands)
        )
        (body, body_peak, body_params_bytes), *conds = [
            self._price(region, params, targets)
            for region, (params, targets) in zip(unit.regions, plan.regions)
        ]
        terms = loop_cost_terms(plan.attrs, body, self.device,
                                conds[0][0] if conds else None)
        extra = memory_mod.loop_extra_bytes(plan.attrs, body_peak,
                                            body_params_bytes)
        for _, peak, params_bytes in conds:
            extra += memory_mod.scan_body_extra_bytes(peak, params_bytes)
        # The loop's result handles are its reconciled carry operands'.
        carry_params, _ = plan.regions[0]
        carry_nbytes = []
        tails = []
        for i, tail in enumerate(plan.tails):
            carry_nbytes.append(
                self._local_type(op.operands[i], carry_params[i + 1]).nbytes)
            if tail is not None:
                steps = self._priced(self._chain(op.operands[i], *tail))
                for step in steps:
                    terms += step.terms
                tails.append((i, tuple(step.nbytes for step in steps)))
        return self._segment(sites, terms, carry_nbytes, op.results, False,
                             extra, tails)


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
