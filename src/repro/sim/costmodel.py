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
  reads and fills, and the estimator prices each plan-table key once, as
  a *template* (an op's plan priced, with no value in it): L identical
  layers build one template per key and bind it L times, and a final
  lowering re-plans nothing the search saw.  Each op keeps the
  *instances* it was bound to, memoized on its sharding signature, so an
  evaluation is a pure function of the env's current shardings: one pass
  over the ops *refreshes* each op — rebuilds its signature and looks
  its instance up, *instantiating* its template on a miss — and *folds*
  the instance's pre-built records and terms into a
  :class:`~repro.sim.terms.TermSum` and a
  :class:`~repro.sim.memory.LiveRangeLog`; loop regions are priced by the
  same pass, recursively.  Instances key on sharding ids, not on an env,
  so one estimator prices any env of its function and mesh::

      >>> from repro import ManualPartition, ShapeDtype, trace
      >>> from repro.core import ShardingEnv
      >>> from repro.sim.devices import TPU_V3
      >>> from repro.spmd.lower import lower
      >>> from repro.trace import ops
      >>> def mlp(x, w1, w2):  # two layers of one shape
      ...     return ops.tanh(ops.tanh(x @ w1) @ w2)
      >>> square = ShapeDtype((8, 8))
      >>> function = trace(mlp, square, square, square).function
      >>> mesh = Mesh({"batch": 2})
      >>> replicated, tiled = ShardingEnv(mesh), ShardingEnv(mesh)
      >>> _ = ManualPartition({"0": 0}, axis="batch").apply(function, tiled)
      >>> estimator = StreamingEstimator(function, mesh, TPU_V3)
      >>> def exact(env):
      ...     return (estimator.estimate_incremental(env)
      ...             == estimate(lower(function, env), TPU_V3))
      >>> exact(tiled)
      True
      >>> [op.opcode for op in function.ops]  # tags are auto tag points
      ['dot_general', 'tag', 'tanh', 'dot_general', 'tag', 'tanh']
      >>> estimator.ops_planned  # one template per key: a dot, a tanh
      2
      >>> exact(replicated), estimator.ops_planned  # two more keys
      (True, 4)
      >>> exact(tiled), estimator.ops_planned  # all hits
      (True, 4)

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

from repro.core.opclass import op_class
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


class _Template:
    """The value-free part of a segment, shared by every op with one
    plan-table key (a loop op's is built per resolution).

    ``sites`` holds per operand ``None`` (in layout) or ``(dedup suffix,
    step sizes, parts)`` for its reconcile chain: the suffix is the
    chain's ``(reduced, required)`` when it materializes a pending
    reduction — which the fold deduplicates per function, so those terms
    ride in the site's own ``parts`` — and ``None`` otherwise, the chain's
    terms then being in the template's.  ``parts`` are the pre-split
    terms every instance adds (the op's, its tails', its undeduplicated
    chains'); ``defs`` the local bytes of each result's def record, which
    carries ``alias`` and ``extra``; ``tails`` per result the sizes of
    the records chained after its def (a trailing ``all_slice``, a loop
    result's reconcile chain)."""

    __slots__ = ("sites", "parts", "defs", "tails", "alias", "extra",
                 "plain")

    def __init__(self, sites: tuple, terms: list, defs: Tuple[int, ...],
                 tails: Tuple[Tuple[int, ...], ...], alias: bool,
                 extra: int):
        self.sites = sites
        self.parts = split_terms(terms)
        self.defs = defs
        self.tails = tails
        self.alias = alias
        self.extra = extra
        #: No chain and no tail: an instance is the def record alone.
        self.plain = not any(sites) and not any(tails)


class _UnitState:
    """Per-op state: how to pick the op's signature out of its region's
    sharding iids, the stable uids of its values, the memo of its
    instances and, for a loop op, its regions."""

    __slots__ = ("op", "is_tag", "pick", "instances", "regions",
                 "operands", "results")

    def __init__(self, op, position, uid):
        self.op = op
        self.is_tag = op.opcode == "tag"
        self.regions = tuple(_Region(region, uid) for region in op.regions)
        #: A loop's lowering reads the whole body (cond included), so its
        #: signature keys on every subtree value (region ops read only
        #: values their region defines; pipeline pins land on these too).
        values = tuple(op.operands) + tuple(op.results) + tuple(
            value for region in op.regions for value in region.index.values)
        #: ``pick(iids)`` is the signature: the iids of ``values`` (one
        #: value's alone for a one-value op), in order.
        self.pick = operator.itemgetter(*map(position, values))
        self.instances: Dict[object, tuple] = {}
        self.operands: Tuple[int, ...] = ()
        self.results: Tuple[int, ...] = ()


class _Region:
    """One function the fold prices — the program or a loop region: a unit
    per op, the values their signatures read, the stable export uid of
    each value and the memos of its boundary (a parameter's records per
    iid; a result's reconcile site per actual and target iid)."""

    __slots__ = ("function", "units", "values", "params", "results",
                 "sites")

    def __init__(self, function: Function, uid):
        self.function = function
        positions: Dict[object, int] = {}

        def position(value) -> int:
            return positions.setdefault(value, len(positions))

        for value in (*function.params, *function.results):
            position(value)
        self.units = [_UnitState(op, position, uid) for op in function.ops]
        #: Each value with the iid of its replicated default — what an
        #: env holds for a value it never stored.
        self.values = tuple(
            (value, Sharding.replicated(len(value.type.shape)).iid)
            for value in positions)
        # One export uid per value this function defines or reads: the
        # uid its def record (or last tail record) defines and its
        # consumers read, whichever instance produced it.
        uids: Dict[object, int] = {}
        for value in function.params:
            uids[value] = next(uid)
        for unit in self.units:
            for value in (*unit.op.operands, *unit.op.results):
                if value not in uids:
                    uids[value] = next(uid)
            unit.operands = tuple(uids[v] for v in unit.op.operands)
            unit.results = tuple(uids[v] for v in unit.op.results)
        for value in function.results:
            if value not in uids:
                uids[value] = next(uid)
        self.params = [(uids[p], {}) for p in function.params]
        self.results = [(positions[r], uids[r], {}) for r in function.results]
        #: Reconcile sites per fold, before transparent tags drop theirs.
        self.sites = sum(len(unit.op.operands) for unit in self.units) + len(
            function.results)


class StreamingEstimator:
    """``lower -> estimate``, priced from lowering *plans* without
    materializing the program.

    Built for an env evaluated thousands of times (the MCTS's):
    :meth:`estimate_incremental` is a pure function of the env's current
    shardings, memoized per op.  Pricing a lowering spends its time
    *resolving* — fetching plans, recomputing reconcile targets, pricing
    chains — so resolution is shared as far as the plans are, and one
    pass over the ops does three things per op:

    * **refresh**: rebuild the op's signature — the interned ids of its
      adjacent shardings — and look its *instance* up in the op's memo.
    * **instantiate** (a miss): take the *template* of the op's plan-table
      key ``(op class, adjacent iids)`` — its plan, chains included,
      priced once (:class:`_Template`): operand reconcile sites with
      their pending-reduction dedup suffixes, pre-split cost terms, def
      sizes, alias flag and trailing sizes — and bind it to the op's
      values.  L identical layers build one template and L instances; a
      state that differs from a seen one only on part of the program
      instantiates only that part.
    * **fold**: append the instance's pre-built live-range records to a
      fresh :class:`~repro.sim.memory.LiveRangeLog` with one ``extend``
      and its pre-split terms to a :class:`~repro.sim.terms.TermSum` with
      one ``append``.  The term multiset and the record sequence are
      those of walking the fused lowering, so results are bit-identical.

    Records name values by *stable export uids*, one per IR value of a
    region, so an instance does not depend on which instances produced
    its operands: only the chain, trailing and def uids internal to an
    instance are fresh per instance.  A transparent ``tag`` (operand and
    result agree, the lowerer drops it) is a uid alias the log resolves,
    so its consumers' uses land where the reference lowering puts them.
    Cross-op couplings are re-established per fold, exactly as a lowering
    does per function: a chain that materializes a pending reduction is
    deduplicated through a fresh seen-map keyed on the (alias-resolved)
    value and the chain's ``(reduced, required)`` — the first site pays;
    one scope per region — and peak memory comes from the fresh log.
    The function's boundary is memoized per value: a parameter's record
    per ``(index, iid)``, a result's site per ``(index, actual iid,
    target iid)``.

    Instances and templates key on sharding iids, not on an env, so one
    estimator prices any env of its function and mesh.  A loop op's
    template comes from the same pass applied to its regions
    (:meth:`_fold`, recursive for nested loops) under the layouts
    :meth:`~repro.spmd.lower.Lowerer._plan_loop` decides; region ops keep
    their own instances, so a loop whose body changed in one place
    re-instantiates one body op.

    ``ops_reused`` counts instance hits, ``ops_planned`` template builds,
    ``reconcile_misses`` chains priced, and ``reconcile_hits`` reconcile
    sites served without pricing one: every site each fold replays, plus
    each template build that found its chain priced (nearly all hits are
    replayed sites, so they grow with folds, not with chain reuse).
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
        #: ``(op class, signature) -> _Template``.
        self._templates: Dict[tuple, _Template] = {}
        #: Built on first use: a search replayed from its transposition
        #: table never prices.
        self._top: Optional[_Region] = None
        #: Source of every uid records carry (see :meth:`_fold`).
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
            top = self._top = _Region(self.function, self._uid)
        est, peak, _, site_hits = self._fold(
            top, [env.sharding(p) for p in top.function.params], None)
        est.peak_memory_bytes = peak
        self.reconcile_hits += site_hits
        return est

    # -- fold ---------------------------------------------------------------

    def _fold(self, region: _Region, param_shardings,
              result_targets) -> Tuple[CostEstimate, int, int, int]:
        """The one pass: refresh, instantiate and fold ``region``'s ops,
        then its results — the program under the env, or one run of a
        loop region under fixed parameter layouts and result targets;
        ``(estimate, peak bytes, parameter bytes, reconcile sites
        replayed)``.

        An instance is ``(records, parts, None)`` — its whole record run,
        replayed with one ``extend`` — unless one of its sites may be
        deduplicated: then ``((), parts, (sites, def head, tail records))``
        and its operand uids are decided here.  A transparent tag's is
        ``(None, None, (result uid, operand uid))``.  Sparse uids are
        safe: :meth:`LiveRangeLog.peak_bytes` keys every table by uid and
        never assumes density, and record *order* (which the peak walk
        does depend on) is byte-for-byte that of the fused lowering's op
        list.
        """
        stored_get = self._env._shardings.get
        iids = [s.iid if (s := stored_get(value)) is not None else default
                for value, default in region.values]
        acc = TermSum()
        add = acc.parts.append
        log = LiveRangeLog()
        extend = log._ops.extend
        aliases = log._aliases
        alias_get = aliases.get
        reduce_seen: Dict[tuple, int] = {}

        def replay(sites) -> List[int]:
            """Replay bound reconcile sites; the uid each one exports."""
            exports = []
            for suffix, value, records, parts, export in sites:
                if suffix is not None:
                    key = (alias_get(value, value), suffix)
                    seen = reduce_seen.get(key)
                    if seen is not None:
                        exports.append(seen)
                        continue
                    reduce_seen[key] = export
                if records:
                    extend(records)
                if parts is not None:
                    add(parts)
                exports.append(export)
            return exports

        params = self._params(region, param_shardings)
        log._params.extend(params)
        misses = transparent = 0
        for unit in region.units:
            sig = unit.pick(iids)
            instance = unit.instances.get(sig)
            if instance is None:
                instance = unit.instances[sig] = self._instance(unit, sig)
                misses += 1
            records, parts, dynamic = instance
            if dynamic is None:
                extend(records)
            elif records is None:
                result, operand = dynamic
                aliases[result] = alias_get(operand, operand)
                transparent += 1
                continue
            else:
                sites, head, tail = dynamic
                log._ops.append((tuple(replay(sites)), *head))
                extend(tail)
            if parts is not None:
                add(parts)
        self.ops_reused += len(region.units) - misses
        exports = replay(self._results(region, iids, result_targets))
        return (acc.total(), log.peak_bytes(exports),
                sum(nbytes for _, nbytes in params),
                region.sites - transparent)

    def _params(self, region: _Region, shardings) -> List[tuple]:
        """The parameters' ``(uid, local bytes)`` records under
        ``shardings``, memoized per parameter and iid."""
        pairs = []
        for (uid, memo), param, sharding in zip(
                region.params, region.function.params, shardings):
            pair = memo.get(sharding.iid)
            if pair is None:
                pair = memo[sharding.iid] = (
                    uid, self._local_type(param, sharding).nbytes)
            pairs.append(pair)
        return pairs

    def _results(self, region: _Region, iids, targets) -> List[tuple]:
        """One bound reconcile site per result — to ``targets``, or by
        default to the env sharding with every pending sum materialized
        (outputs are never partial) — memoized per result and ``(actual
        iid, target iid)``.  Per result, not per value: a value returned
        twice binds two sets of chain uids."""
        sites = []
        for i, (position, uid, memo) in enumerate(region.results):
            target = None if targets is None else targets[i]
            key = (iids[position], None if target is None else target.iid)
            site = memo.get(key)
            if site is None:
                actual = self._env.sharding(region.function.results[i])
                if target is None:
                    target = actual.without_sum(actual.sum_axes)
                site = memo[key] = self._bind(
                    self._site(self._chain(region.function.results[i],
                                           actual, required_of(target))),
                    uid)
            sites.append(site)
        return sites

    # -- instantiation ------------------------------------------------------

    def _instance(self, unit: _UnitState, sig) -> tuple:
        """``unit``'s instance under signature ``sig`` (see :meth:`_fold`),
        from its key's template (built on first use)."""
        if unit.regions:
            template = self._loop_template(unit)
        elif unit.is_tag and sig[0] == sig[1]:
            # Transparent tag marker: the same skip the lowerer applies —
            # the result aliases the operand.
            return (None, None, (unit.results[0], unit.operands[0]))
        else:
            key = (op_class(unit.op), sig)
            template = self._templates.get(key)
            if template is None:
                template = self._templates[key] = self._template(unit.op)
        if template.plain:
            return (((unit.operands, tuple(zip(unit.results, template.defs)),
                      template.alias, template.extra),), template.parts, None)
        sites = [self._bind(site, value)
                 for site, value in zip(template.sites, unit.operands)]
        defs, tail = [], []
        for value, nbytes, sizes in zip(unit.results, template.defs,
                                        template.tails):
            if not sizes:
                defs.append((value, nbytes))
                continue
            # The def record gets a fresh uid; the last tail record
            # defines the value's export.
            prev = next(self._uid)
            defs.append((prev, nbytes))
            for k, size in enumerate(sizes, 1):
                uid = value if k == len(sizes) else next(self._uid)
                tail.append(((prev,), ((uid, size),), False, 0))
                prev = uid
        head = (tuple(defs), template.alias, template.extra)
        if any(site[0] is not None for site in sites):
            return ((), template.parts, (tuple(sites), head, tuple(tail)))
        records = [record for site in sites for record in site[2]]
        records.append((tuple([site[4] for site in sites]), *head))
        records += tail
        return (tuple(records), template.parts, None)

    def _bind(self, site, value: int) -> tuple:
        """A site template bound to the uid of the value it reconciles:
        ``(dedup suffix, value, chain records, parts, export uid)`` with
        fresh uids for the chain's steps."""
        if site is None:
            return (None, value, (), None, value)
        suffix, sizes, parts = site
        records = []
        prev = value
        for nbytes in sizes:
            uid = next(self._uid)
            records.append(((prev,), ((uid, nbytes),), False, 0))
            prev = uid
        return (suffix, value, tuple(records), parts, prev)

    # -- templates ----------------------------------------------------------

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

    def _site(self, chain, terms: Optional[list] = None):
        """The template of a reconcile site through ``chain`` (``None``
        for an in-layout value).  Same dedup contract as the lowerer's
        reduce cache: a pending reduction of one value to one layout is
        materialized once per function (one reduce_scatter per gradient),
        so such a site keeps its own terms; any other site's terms go to
        ``terms`` when given."""
        if chain is None:
            return None
        steps = self._priced(chain)
        chain_terms = [term for step in steps for term in step.terms]
        sizes = tuple(step.nbytes for step in steps)
        if chain.reduced:
            return ((chain.reduced, chain.required), sizes,
                    split_terms(chain_terms))
        if terms is None:
            return (None, sizes, split_terms(chain_terms))
        terms += chain_terms
        return (None, sizes, None)

    def _template(self, op) -> _Template:
        plan = self._lowerer._plan_op(op)
        self.ops_planned += 1
        terms = list(compute_terms(plan.flops, self.device))
        sites = tuple(self._site(chain, terms) for chain in plan.chains)
        tails = []
        for full, trailing in zip(plan.result_types, plan.trailing):
            if trailing is None:
                tails.append(())
                continue
            spec, (sliced,) = trailing
            terms += collective_terms("all_slice", spec, full.nbytes,
                                      sliced.nbytes, self.mesh, self.device)
            tails.append((sliced.nbytes,))
        return _Template(sites, terms,
                         tuple(t.nbytes for t in plan.result_types),
                         tuple(tails),
                         op.opcode in memory_mod.ALIASING_OPS, 0)

    def _loop_template(self, unit: _UnitState) -> _Template:
        op = unit.op
        plan = self._lowerer._plan_loop(op)
        terms = []
        sites = tuple(
            self._site(self._chain(operand, plan.operand_shardings[i],
                                   plan.required[i]), terms)
            for i, operand in enumerate(op.operands)
        )
        # One run of each region under the layouts the plan fixed.
        (body, body_peak, body_params_bytes, _), *conds = [
            self._fold(region, params, targets)
            for region, (params, targets) in zip(unit.regions, plan.regions)
        ]
        terms += loop_cost_terms(plan.attrs, body, self.device,
                                 conds[0][0] if conds else None)
        extra = memory_mod.loop_extra_bytes(plan.attrs, body_peak,
                                            body_params_bytes)
        for _, peak, params_bytes, _ in conds:
            extra += memory_mod.scan_body_extra_bytes(peak, params_bytes)
        # The loop's result handles are its reconciled carry operands'.
        carry_params, _ = plan.regions[0]
        defs, tails = [], []
        for i, tail in enumerate(plan.tails):
            defs.append(
                self._local_type(op.operands[i], carry_params[i + 1]).nbytes)
            if tail is None:
                tails.append(())
                continue
            steps = self._priced(self._chain(op.operands[i], *tail))
            for step in steps:
                terms += step.terms
            tails.append(tuple(step.nbytes for step in steps))
        return _Template(sites, terms, tuple(defs), tuple(tails), False,
                         extra)


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
