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
  signatures, so an evaluation is a pure function of the env's current
  shardings: every call *refreshes* every op — rebuilds its signature
  and looks its segment up — and then *folds* the whole function once,
  replaying each op's precompiled segment into a
  :class:`~repro.sim.terms.TermSum` and a
  :class:`~repro.sim.memory.LiveRangeLog`; loop regions are priced by the
  same refresh and fold, recursively.  Segments key on sharding ids, not
  on an env, so one estimator prices any env of its function and mesh::

      >>> from repro import ManualPartition, ShapeDtype, trace
      >>> from repro.core import ShardingEnv
      >>> from repro.sim.devices import TPU_V3
      >>> from repro.spmd.lower import lower
      >>> from repro.trace import ops
      >>> square = ShapeDtype((8, 8))
      >>> function = trace(lambda x, w: ops.tanh(x @ w), square,
      ...                  square).function
      >>> mesh = Mesh({"batch": 2})
      >>> replicated, tiled = ShardingEnv(mesh), ShardingEnv(mesh)
      >>> _ = ManualPartition({"0": 0}, axis="batch").apply(function, tiled)
      >>> estimator = StreamingEstimator(function, mesh, TPU_V3)
      >>> def exact(env):
      ...     return (estimator.estimate_incremental(env)
      ...             == estimate(lower(function, env), TPU_V3))
      >>> exact(replicated), exact(tiled)
      (True, True)
      >>> planned = estimator.ops_planned
      >>> exact(replicated), estimator.ops_planned == planned  # all hits
      (True, True)

  This module emits
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
import operator
from typing import Dict, List, Optional, Tuple

from repro.core.sharding import Sharding
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


class _UnitState:
    """Per-op state: how to pick the op's signature out of its region's
    sharding iids, the memo of resolved segments and, for a loop op, its
    regions."""

    __slots__ = ("op", "is_tag", "pick", "segments", "regions")

    def __init__(self, op, position):
        self.op = op
        self.is_tag = op.opcode == "tag"
        self.regions = tuple(_Region(region) for region in op.regions)
        #: A loop's lowering reads the whole body (cond included), so its
        #: segment keys on every subtree value (region ops read only
        #: values their region defines; pipeline pins land on these too).
        values = tuple(op.operands) + tuple(op.results) + tuple(
            value for region in op.regions for value in region.index.values)
        #: ``pick(iids)`` is the signature: the iids of ``values`` (one
        #: value's alone for a one-value op), in order.
        self.pick = operator.itemgetter(*map(position, values))
        self.segments: Dict[object, tuple] = {}


class _Region:
    """One function the fold prices — the program or a loop region: a unit
    per op, the values their signatures read and the memos of its boundary
    segments (parameter records; result reconcile sites)."""

    __slots__ = ("function", "units", "values", "params", "results")

    def __init__(self, function: Function):
        self.function = function
        positions: Dict[object, int] = {}

        def position(value) -> int:
            return positions.setdefault(value, len(positions))

        self.units = [_UnitState(op, position) for op in function.ops]
        #: Each value with the iid of its replicated default — what an
        #: env holds for a value it never stored.
        self.values = tuple(
            (value, Sharding.replicated(len(value.type.shape)).iid)
            for value in positions)
        self.params: Dict[tuple, tuple] = {}
        self.results: Dict[tuple, tuple] = {}


class StreamingEstimator:
    """``lower -> estimate``, priced from lowering *plans* without
    materializing the program.

    Built for an env evaluated thousands of times (the MCTS's):
    :meth:`estimate_incremental` is a pure function of the env's current
    shardings, memoized per op.  Pricing a lowering spends its time
    *resolving* — fetching plans, recomputing reconcile targets, pricing
    chains — so each call splits into:

    * **refresh** (every op): rebuild the op's signature — the interned
      ids of its adjacent shardings — and look up its *segment*, the op's
      replay plan (:meth:`_segment`): its operand reconcile sites (with
      their pending-reduction dedup keys), its pre-split cost terms and
      the live-range records it appends.  A miss takes the op's plan,
      chains included, from the function's plan table, shared with
      :func:`lower`; a hit re-resolves nothing, so a state that differs
      from a seen one only on part of the program re-prices only that
      part.
    * **fold** (every op, in program order): extend a fresh
      :class:`~repro.sim.terms.TermSum` and
      :class:`~repro.sim.memory.LiveRangeLog` with each segment.  The term
      multiset and the record sequence are those of walking the fused
      lowering, so results are bit-identical.

    Segments key on sharding iids, not on an env, so one estimator prices
    any env of its function and mesh.  A loop op's segment comes from the
    same two steps applied to its regions (:meth:`_price`, recursive for
    nested loops) under the layouts
    :meth:`~repro.spmd.lower.Lowerer._plan_loop` decides; region ops keep
    their own per-signature segments, so a loop whose body changed in one
    place re-resolves one body op.  Cross-op couplings are re-established
    per fold, exactly as a lowering does per function: pending reductions
    deduplicate through a fresh seen-map (first materializing site pays;
    one scope per region), and peak memory comes from the freshly spliced
    log.

    ``ops_reused`` / ``ops_planned`` count segment hits and misses,
    ``reconcile_hits`` / ``reconcile_misses`` the chain memo's (plus, per
    fold, every reconcile site replayed).
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
        #: Built on first use: a search replayed from its transposition
        #: table never prices.
        self._top: Optional[_Region] = None
        #: Source of the stable uids segments carry (see :meth:`_fold`).
        self._uid = itertools.count()
        #: The env being priced and a lowerer over it, asked for plans
        #: only (it never emits; it reads and fills the function's plan
        #: table, shared with every lower() of it).  Set per call.
        self._env = None
        self._lowerer: Optional[Lowerer] = None

    def estimate_incremental(self, env) -> CostEstimate:
        """Exact estimate of ``env``: one signature lookup per op, one
        linear fold to sum — bit-identical to the materializing
        ``lower -> estimate`` pipeline on every field, whatever envs the
        estimator priced before."""
        self._env = env
        self._lowerer = Lowerer(env, self.function)
        top = self._top
        if top is None:
            top = self._top = _Region(self.function)
        segments = self._refresh(top)
        boundary = self._boundary(
            top, [env.sharding(p) for p in top.function.params], None)
        est, peak, site_hits = self._fold(boundary, segments)
        est.peak_memory_bytes = peak
        self.reconcile_hits += site_hits
        return est

    # -- refresh ------------------------------------------------------------

    def _refresh(self, region: _Region) -> List[tuple]:
        """The segment in force for each of ``region``'s ops, in program
        order, under the env being priced."""
        # This runs for every op on every evaluation, so each value is
        # probed once (a direct probe of the env's store) and each op's
        # signature is one C call on the result.
        stored_get = self._env._shardings.get
        iids = [s.iid if (s := stored_get(value)) is not None else default
                for value, default in region.values]
        segments = []
        reused = 0
        for unit in region.units:
            sig = unit.pick(iids)
            segment = unit.segments.get(sig)
            if segment is None:
                if unit.regions:
                    segment = self._resolve_loop(unit)
                elif unit.is_tag and sig[0] == sig[1]:
                    # Transparent tag marker: the same skip the lowerer
                    # applies — the result aliases the operand.
                    segment = ("alias", id(unit.op.operands[0]),
                               id(unit.op.results[0]))
                else:
                    segment = self._resolve_plain(unit.op)
                unit.segments[sig] = segment
            else:
                reused += 1
            segments.append(segment)
        self.ops_reused += reused
        return segments

    # -- fold ---------------------------------------------------------------

    def _price(self, region: _Region, param_shardings,
               result_targets) -> Tuple[CostEstimate, int, int]:
        """``(estimate, peak bytes, parameter bytes)`` of one run of a
        loop region lowered under fixed parameter layouts and result
        targets — the same refresh and fold the program gets."""
        segments = self._refresh(region)
        boundary = self._boundary(region, param_shardings, result_targets)
        est, peak, _ = self._fold(boundary, segments)
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
        lowering's op list.  Segments name IR values by ``id()`` (values
        live as long as the function), so a segment is a tuple of plain
        ints.
        """
        acc = TermSum()
        add_parts = acc.extend
        log = LiveRangeLog()
        ops_append = log._ops.append
        ops_extend = log._ops.extend
        value_uids: Dict[int, int] = {}
        reduce_seen: Dict[tuple, int] = {}
        site_hits = 0

        def replay_site(site) -> int:
            """Replay a reconcile site that has a chain; its export."""
            value, reduce_key, chain = site
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
            if segment[0] == "alias":
                # Transparent tag marker: no cost, no live-range record.
                value_uids[segment[2]] = value_uids[segment[1]]
                continue
            (_, op_sites, defs, alias, extra, parts, tail_records,
             result_items) = segment
            site_hits += len(op_sites)
            # An in-layout operand (no chain): the producer's export is
            # the handle.
            operand_uids = tuple([
                value_uids[s[0]] if s[2] is None else replay_site(s)
                for s in op_sites])
            ops_append((operand_uids, defs, alias, extra))
            if tail_records:
                ops_extend(tail_records)
            if parts:
                add_parts(parts)
            for result, uid in result_items:
                value_uids[result] = uid
        site_hits += len(sites)
        result_uids = [value_uids[s[0]] if s[2] is None else replay_site(s)
                       for s in sites]
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
                tuple(zip(map(id, function.params), uids)),
            )
        sharding = self._env.sharding
        actuals = [sharding(r) for r in function.results]
        key = (tuple([s.iid for s in actuals]),
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
        steps = self._chains.get(chain)
        if steps is None:
            priced = []
            nbytes = chain.source.nbytes
            for opcode, attrs, result_type in chain.steps:
                priced.append(_ChainStep(result_type.nbytes, collective_terms(
                    opcode, attrs, nbytes, result_type.nbytes, self.mesh,
                    self.device)))
                nbytes = result_type.nbytes
            steps = self._chains[chain] = tuple(priced)
            self.reconcile_misses += 1
        else:
            self.reconcile_hits += 1
        return steps

    def _resolve_site(self, value, chain):
        """One operand-reconciliation site — ``value`` through ``chain``
        — as its replay plan ``(id(value), pending-reduction dedup key or
        None, chain)``: ``chain`` is None for an in-layout operand, else
        the pre-built first-hop def, the static records past it, the
        chain's pre-split cost terms and its final (export) uid."""
        if chain is None:
            return (id(value), None, None)
        steps = self._priced(chain)
        # Same dedup contract as the lowerer's reduce cache: a pending
        # reduction of one value to one layout is materialized once per
        # function (one reduce_scatter per gradient).
        reduce_key = ((id(value), chain.reduced, chain.required)
                      if chain.reduced else None)
        records = []
        prev = -1
        for step in steps:
            uid = next(self._uid)
            records.append(((prev,), ((uid, step.nbytes),), False, 0))
            prev = uid
        parts = split_terms(term for step in steps for term in step.terms)
        return (id(value), reduce_key,
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
        return ("op", tuple(sites), defs, alias, extra, parts,
                tuple(tail_records), tuple(zip(map(id, results), exports)))

    def _resolve_plain(self, op) -> tuple:
        plan = self._lowerer._plan_op(op)
        self.ops_planned += 1
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
