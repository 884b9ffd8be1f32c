"""Lowering a sharded module to device-local SPMD code (Sections 6, C).

Given the sharding environment produced by tactics + propagation, this pass
*reconciles* every op: a pending ``#sum`` operand is ``all_reduce``-d at its
first use that cannot defer the reduction, an operand sharded on axes the
op's factor assignment does not explain is ``all_gather``-ed at the use
site (FSDP's per-use parameter gathers), an operand missing required tiling
is ``all_slice``-d (local, free), and an op whose *result* sharding its
rule cannot explain is computed replicated and ``all_slice``-d after.
Gathers are deliberately *not* CSE-d across uses: the paper counts (and XLA
materializes) one gather per use site.

The lowerer emits straight into a :class:`FunctionBuilder` and produces the
classic device-local :class:`Function`, collectives already fused — every
value has its device-local shape, communication is explicit via mesh-axis
collectives, shape-carrying attrs (broadcast/reshape/iota/slice) are
localized, and every emitted type comes from the op's registered
inference (run once per plan, below).  This is the only thing in the tree
that emits device-local code; :func:`lower` (and therefore ``partir_jit``,
the executor and the reference cost pipeline) run it.

**Plan, then instantiate.**  :meth:`Lowerer._plan_op` turns an op and its
adjacent shardings into its *plan* (:class:`_OpPlan`), the one lowering
record per key: per operand the required layout, the pending axes it may
keep and its fused reconcile chain (``None`` when already in layout); the
op's localized attrs and inferred local result types (checked against the
shapes its layouts imply); per result its trailing ``all_slice``; and its
local FLOPs.  Every lowering then only *instantiates* plans: it emits the
recorded chain steps, the op and its slices with their recorded types and
binds the values.  Loops are planned by :meth:`Lowerer._plan_loop`
(operand/carry layouts, each region's parameter layouts and result
targets, injected ``pipeline_*`` attrs, which results need a reconcile
after the loop) and emitted by :meth:`Lowerer._emit_loop`, regions through
the same plans.  The search's estimator (:mod:`repro.sim.costmodel`) reads
the two planners and the chain table — and nothing else here — to price a
program without lowering it, re-pricing only ops whose neighborhood
changed, mirroring incremental propagation.

**Fusion happens where a chain is decided.**  A reconcile chain is at most
``all_reduce`` (pending sums the consumer cannot absorb), ``all_gather``
(what follows the longest common prefix of the actual and required
layouts, per dim) and ``all_slice`` (the required suffix).  Section 6's two
fusions both fire inside one such chain, so :meth:`Lowerer._reconcile`
applies them in closed form: an ``all_reduce`` sliced on a subset of its
axes with no gather between is a ``reduce_scatter`` (after an
``all_reduce`` over any leftover axes), and a gather and slice that move
the same axes from one dim to another are an ``all_to_all``.  Each chain is
decided once per key of the function's :func:`chain_table`.  Its
intermediates are single-use, so no fusable pair straddles two chains:
``tests/test_lower_templates.py`` checks :func:`lower` against a
whole-program reference fusion of the unfused emission
(``tests/oracle.py``) on every model family.

**One plan per structural class.**  An op's plan is a pure function of
its class (:func:`repro.core.opclass.op_class`, which propagation keys
on too), its adjacent shardings and the mesh; it holds no :class:`Value`
and no identity label, and emission copies the attrs and adds the op's
own labels (a tag's ``name``).  So plans are shared: a function carries
one plan table per mesh (:func:`plan_table`, a view of the function that
never rides a pickle), keyed ``(class, operand sharding iids, result
sharding iids)``, and every lowerer built for the function —
each :func:`lower` call and the estimator's — reads and fills it.  L
identical layers are planned once, and so is the unchanged rest of a
program re-lowered after each tactic.  What keeps the materializing
pipeline an independent reference is that the key is complete:
``tests/test_plan_table.py`` checks, on every model family, that a plan
served from a warm table equals a freshly built one and that a warm
:func:`lower` matches a cold one op for op.

>>> from repro import ManualPartition, Mesh, ShapeDtype, partir_jit, trace
>>> from repro.trace import ops
>>> def mlp(x, w1, w2):  # two layers of one shape
...     return ops.tanh(ops.tanh(x @ w1) @ w2)
>>> square = ShapeDtype((8, 8))
>>> traced = trace(mlp, square, square, square)
>>> mesh = Mesh({"batch": 2})
>>> _ = partir_jit(traced, mesh, [ManualPartition({"0": 0}, axis="batch")])
>>> [op.opcode for op in traced.function.ops]  # tags are auto tag points
['dot_general', 'tag', 'tanh', 'dot_general', 'tag', 'tanh']
>>> len(plan_table(traced.function, mesh))  # one dot plan, one tanh plan
2

A sharded weight minus its gradient: the gradient's pending sum is
reduced and sliced to the weight's tiling, which ``lower`` emits as one
``reduce_scatter``.

>>> def sgd(w, x, dy):
...     return w - ops.transpose(x) @ dy
>>> traced = trace(sgd, square, square, square)
>>> _, meta = partir_jit(traced, mesh, [
...     ManualPartition({"0": 0, "1": 0, "2": 0}, axis="batch")])
>>> [op.opcode for op in lower(traced.function, meta.env).function.ops]
['transpose', 'dot_general', 'reduce_scatter', 'sub']

A tag whose operand is tiled on dim 1 and whose result is tiled on dim 0
(set by hand here): the operand's chain gathers dim 1 and slices dim 0,
which ``lower`` emits as one ``all_to_all``.

>>> from repro.core import ShardingEnv, tile
>>> traced = trace(lambda x: ops.tag(x, "t"), square)
>>> env = ShardingEnv(mesh)
>>> tile(env, traced.function.params[0], 1, "batch")
>>> tile(env, traced.function.ops[0].results[0], 0, "batch")
>>> [op.opcode for op in lower(traced.function, env).function.ops]
['all_to_all', 'tag']
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LoweringError
from repro.ir import opdefs
from repro.ir.function import Function, FunctionBuilder, infer_types
from repro.ir.types import TensorType
from repro.ir.values import Operation, Value
from repro.mesh import Mesh
from repro.core import pipeline as pipeline_mod
from repro.core.opclass import (COST_IRRELEVANT_ATTRS, op_class, rule_for,
                                structural_attrs)
from repro.core.propagate import may_defer
from repro.core.sharding import Sharding, ShardingEnv

# Ops whose attrs carry a result shape that must be localized.
_RESULT_SHAPE_ATTR = {"broadcast_in_dim": "shape", "reshape": "new_shape",
                      "iota": "shape"}


@dataclasses.dataclass
class LoweredModule:
    """A device-local function plus the boundary sharding contracts."""

    function: Function
    mesh: Mesh
    input_shardings: List[Sharding]
    output_shardings: List[Sharding]


def lower(function: Function, env: ShardingEnv) -> LoweredModule:
    """Lower ``function`` under ``env`` to a device-local function."""
    input_shardings = [env.sharding(p) for p in function.params]
    local = Lowerer(env, function).lower_function(
        function, function.name + "_spmd")
    output_shardings = [
        env.sharding(r).without_sum(env.sharding(r).sum_axes)
        for r in function.results
    ]
    return LoweredModule(local, env.mesh, input_shardings, output_shardings)


@dataclasses.dataclass(frozen=True, eq=False)
class _Chain:
    """One fused reconcile chain: what taking a value of local type
    ``source`` from one layout to another emits, as ``(opcode, attrs,
    result type)`` steps, each consuming the previous step's result.

    Decided once per key of the function's chain table
    (:func:`chain_table`) and shared, by identity, by every site with
    that key: each lowering instantiates it and the estimator prices it.
    ``reduced`` (the pending-sum axes it materializes) and ``required``
    (the target layout, per dim) are the parts of the key a site's
    pending-reduction dedup also reads."""

    source: TensorType
    reduced: Tuple[str, ...]
    required: Tuple[Tuple[str, ...], ...]
    steps: Tuple[Tuple[str, dict, TensorType], ...]


@dataclasses.dataclass(frozen=True, eq=False)
class _OpPlan:
    """An op's lowering record, decoupled from any emission target.

    Everything here is a pure function of the op's structural class, the
    shardings of its adjacent values and the mesh — the key of the plan
    table (:func:`plan_table`) that shares one instance between every op
    and every lowering with that key.  Per operand: its actual layout,
    the layout the op requires, the pending axes it may keep, and its
    reconcile chain (``None`` when already in layout).  Then the op's
    localized attrs (without identity labels), its inferred local result
    types, per result the trailing ``all_slice`` as ``(attrs, result
    types)`` or ``None``, and its local FLOPs.  Lowering instantiates a
    plan and the estimator prices it; nothing may write to one.
    """

    operand_shardings: Tuple[Sharding, ...]
    required: Tuple[Dict[int, List[str]], ...]
    allowed_pending: Tuple[Set[str], ...]
    chains: Tuple[Optional[_Chain], ...]
    attrs: dict
    result_types: Tuple[TensorType, ...]
    trailing: Tuple[Optional[Tuple[dict, Tuple[TensorType]]], ...]
    flops: float


@dataclasses.dataclass
class _LoopPlan:
    """The lowering decisions of one loop op (see :meth:`Lowerer._plan_loop`).

    ``operand_shardings`` / ``required`` reconcile each operand to its body
    parameter's layout; ``regions`` holds, per region (body, then
    ``while_loop``'s cond), the fixed parameter layouts and result targets
    it is lowered under; ``attrs`` are the op's attrs plus any injected
    ``pipeline_*`` pricing attrs; ``tails[i]`` is the ``(actual, required)``
    reconcile result ``i`` needs after the loop, or ``None``.
    """

    operand_shardings: Tuple[Sharding, ...]
    required: Tuple[Dict[int, List[str]], ...]
    regions: Tuple[Tuple[List[Sharding], List[Sharding]], ...]
    attrs: dict
    tails: Tuple[Optional[Tuple[Sharding, Dict[int, List[str]]]], ...]


def _table(kind: str, function: Function, mesh: Mesh) -> dict:
    return function.derived((kind, mesh), lambda _: {})


def plan_table(function: Function, mesh: Mesh) -> Dict[tuple, _OpPlan]:
    """``function``'s lowering-plan table for ``mesh``: ``(op class,
    operand sharding iids, result sharding iids) -> plan``, for the ops of
    the function and of its regions.  A view of the function
    (:meth:`Function.derived`): created on first use, dropped if the
    function grows, never pickled."""
    return _table("plan_table", function, mesh)


def chain_table(function: Function, mesh: Mesh) -> Dict[tuple, _Chain]:
    """``function``'s reconcile-chain table for ``mesh``: ``(local type,
    actual layout iid, required layout, reduced axes) -> chain`` for every
    chain that is not the identity, read and filled by every planner of
    the function.  A view of the function, like :func:`plan_table`."""
    return _table("chain_table", function, mesh)


def required_of(sharding: Sharding) -> Dict[int, List[str]]:
    """The ``required`` layout that is exactly ``sharding``'s tiling."""
    return {d: list(axes) for d, axes in enumerate(sharding.dim_axes)}


class Lowerer:
    def __init__(self, env: ShardingEnv, function: Optional[Function] = None):
        self.env = env
        self.mesh = env.mesh
        #: ``function``'s shared plan and chain tables for this mesh, or
        #: private ones for a lowerer built only to plan.
        if function is None:
            self._plans, self._chains = {}, {}
        else:
            self._plans = plan_table(function, self.mesh)
            self._chains = chain_table(function, self.mesh)
        # Reconciliations that materialise a pending reduction are cached so
        # each gradient is reduced exactly once (XLA CSEs the all_reduce;
        # the fused form is the paper's one reduce_scatter per gradient).
        # Pure gathers are deliberately NOT cached: parameters are gathered
        # per use site (FSDP's forward + backward all_gathers).
        self._reduce_cache: Dict[tuple, Value] = {}

    # -- helpers ------------------------------------------------------------

    def _sizes(self, axes) -> Dict[str, int]:
        return {a: self.mesh.size(a) for a in axes}

    def _local_shape(self, value: Value, sharding: Sharding) -> Tuple[int, ...]:
        return sharding.local_shape(value.type.shape, self.mesh)

    # -- function lowering -----------------------------------------------------

    def lower_function(
        self,
        function: Function,
        name: str,
        fixed_param_shardings: Optional[List[Sharding]] = None,
        result_targets: Optional[List[Sharding]] = None,
    ) -> Function:
        builder = FunctionBuilder(name)
        value_map: Dict[Value, Value] = {}
        for i, param in enumerate(function.params):
            sharding = (
                fixed_param_shardings[i]
                if fixed_param_shardings is not None
                else self.env.sharding(param)
            )
            value_map[param] = builder.function.add_param(
                param.type.with_shape(self._local_shape(param, sharding)),
                name=param.name,
            )
        builder.function.input_names = list(function.input_names)

        for op in function.ops:
            self._lower_op(op, builder, value_map)

        # Reconcile results to their targets (default: env sharding with all
        # pending sums materialized — outputs are never partial).
        results = []
        for i, result in enumerate(function.results):
            actual = self.env.sharding(result)
            target = (
                result_targets[i] if result_targets is not None
                else actual.without_sum(actual.sum_axes)
            )
            results.append(self._reconciled(
                builder, value_map[result], actual, required_of(target),
                set()))
        return builder.ret(*results, names=function.output_names)

    def _tag_transparent(self, op: Operation) -> bool:
        """Is this ``tag`` marker droppable here — operand and result agree
        on a sharding (always true at a propagation fixed point, since the
        tag rule ties every dimension 1:1 and pending sums defer through
        it)?  Interned shardings make the check a pointer comparison."""
        return (self.env.sharding(op.operands[0])
                is self.env.sharding(op.results[0]))

    def _lower_op(self, op: Operation, builder, value_map) -> None:
        """Lower one op into the builder.

        ``tag`` markers are pure annotations: whenever operand and result
        agree on a sharding (any propagation fixed point) the op is dropped
        from device-local code — the result simply aliases the operand's
        lowered value.  The estimator applies the identical skip, keeping
        the materialized and search estimates bit-identical.
        """
        if op.opcode in opdefs.LOOP_OPS:
            self._emit_loop(op, builder, value_map)
            return
        if op.opcode == "tag" and self._tag_transparent(op):
            value_map[op.results[0]] = value_map[op.operands[0]]
            return
        # Instantiate the op's plan: its operands' recorded chains, the
        # op, its trailing slices — no inference, no fusion.
        plan = self._plan_op(op)
        operands = [self._instantiate(builder, value_map[operand], chain)
                    for operand, chain in zip(op.operands, plan.chains)]
        attrs = plan.attrs
        labels = COST_IRRELEVANT_ATTRS.get(op.opcode)
        if labels:  # the plan is the class's; the labels are the op's
            attrs = {**attrs, **{key: v for key, v in op.attrs.items()
                                 if key in labels}}
        emitted = builder.emit_typed(op.opcode, operands, attrs,
                                     plan.result_types)
        for result, value, trailing in zip(op.results, emitted.results,
                                           plan.trailing):
            if trailing is not None:
                value = builder.emit_typed("all_slice", [value],
                                           *trailing).results[0]
            value.name = result.name
            value_map[result] = value

    # -- reconciliation ---------------------------------------------------------

    def _chain(self, local_type: TensorType, actual: Sharding,
               required: Dict[int, List[str]], allowed_pending
               ) -> Optional[_Chain]:
        """The fused reconcile chain taking a value of ``local_type`` laid
        out per ``actual`` to ``required``, or ``None`` when the value is
        already in layout: looked up in the chain table, or decided by
        :meth:`_reconcile` and entered there.  The one place the chain key
        is built."""
        required_t = tuple(
            tuple(required.get(d, ())) for d in range(actual.rank))
        reduced = tuple(
            a for a in sorted(actual.sum_axes) if a not in allowed_pending)
        if not reduced and required_t == actual.dim_axes:
            return None
        key = (local_type, actual.iid, required_t, reduced)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = _Chain(
                local_type, reduced, required_t,
                self._reconcile(local_type, actual, required_t, reduced))
        return chain

    def _instantiate(self, builder: FunctionBuilder, value: Value,
                     chain: Optional[_Chain]) -> Value:
        """Emit ``chain`` on ``value`` — once per function for a chain that
        materializes a pending reduction (the reduce cache) — and return
        the reconciled value (``value`` itself for no chain)."""
        if chain is None:
            return value
        if chain.reduced:
            # A value belongs to one function, so it scopes the dedup.
            key = (value, chain.reduced, chain.required)
            cached = self._reduce_cache.get(key)
            if cached is not None:
                return cached
        reconciled = value
        for opcode, attrs, result_type in chain.steps:
            reconciled = builder.emit_typed(opcode, [reconciled], attrs,
                                            (result_type,)).results[0]
        if chain.reduced:
            self._reduce_cache[key] = reconciled
        return reconciled

    def _reconciled(self, builder: FunctionBuilder, value: Value,
                    actual: Sharding, required: Dict[int, List[str]],
                    allowed_pending) -> Value:
        """``value`` (laid out per ``actual``) reconciled to ``required``
        in ``builder``, through its recorded chain."""
        return self._instantiate(builder, value, self._chain(
            value.type, actual, required, allowed_pending))

    def _reconcile(self, local_type: TensorType, actual: Sharding,
                   required: Tuple[Tuple[str, ...], ...],
                   reduced: Tuple[str, ...]
                   ) -> Tuple[Tuple[str, dict, TensorType], ...]:
        """The fused steps taking a value of ``local_type`` laid out per
        ``actual`` to the ``required`` per-dim layout, materializing the
        pending sums on ``reduced``.

        Unfused, the chain is an ``all_reduce`` over ``reduced``, then per
        dim: keep the longest common prefix of the actual and required
        axes, ``all_gather`` the rest of the actual ones, ``all_slice`` in
        the rest of the required ones.  Section 6's two fusions apply
        within it:

        * an ``all_reduce`` then an ``all_slice`` (no gather) on a subset
          of the reduced axes is a ``reduce_scatter``, after an
          ``all_reduce`` over the reduced axes the slice leaves;
        * an ``all_gather`` then an ``all_slice`` of the same axes,
          gathered on one dim and sliced on another, is an ``all_to_all``.

        A gather and slice that cancel exactly cannot arise: a dim's
        gathered and sliced axes both start past the common prefix, so
        their first axes differ.  An axis may be gathered and sliced in
        again on one dim, when the required layout nests it at another
        depth."""
        steps = []

        def emit(opcode: str, attrs: dict) -> None:
            nonlocal local_type
            local_type, = infer_types(opcode, [local_type], attrs)
            steps.append((opcode, attrs, local_type))

        kept, gathered, sliced = [], [], []
        for a_axes, r_axes in zip(actual.dim_axes, required):
            prefix = 0
            while (prefix < len(a_axes) and prefix < len(r_axes)
                   and a_axes[prefix] == r_axes[prefix]):
                prefix += 1
            kept.append(a_axes[:prefix])
            gathered.append(a_axes[prefix:])
            sliced.append(r_axes[prefix:])
        kept, gathered, sliced = tuple(kept), tuple(gathered), tuple(sliced)
        gather_axes = [a for axes in gathered for a in axes]
        slice_axes = [a for axes in sliced for a in axes]
        if (slice_axes and not gather_axes
                and set(slice_axes) <= set(reduced)):
            residual = tuple(a for a in reduced if a not in slice_axes)
            if residual:
                emit("all_reduce", {"axes": residual, "kind": "add",
                                    "sizes": self._sizes(residual)})
            emit("reduce_scatter", {
                "dims": sliced, "sizes": self._sizes(slice_axes),
                "operand_dims": actual.dim_axes, "result_dims": required,
                "kind": "add"})
            return tuple(steps)
        if reduced:
            emit("all_reduce", {"axes": reduced, "kind": "add",
                                "sizes": self._sizes(reduced)})
        moved = [d for d, axes in enumerate(gathered) if axes]
        into = [d for d, axes in enumerate(sliced) if axes]
        if (len(moved) == len(into) == 1
                and gathered[moved[0]] == sliced[into[0]]):
            emit("all_to_all", {
                "gather_dim": moved[0], "slice_dim": into[0],
                "axes": gathered[moved[0]],
                "sizes": self._sizes(gather_axes),
                "operand_dims": actual.dim_axes, "result_dims": required})
            return tuple(steps)
        if gather_axes:
            emit("all_gather", {
                "dims": gathered, "sizes": self._sizes(gather_axes),
                "operand_dims": actual.dim_axes, "result_dims": kept})
        if slice_axes:
            emit("all_slice", {
                "dims": sliced, "sizes": self._sizes(slice_axes),
                "operand_dims": kept, "result_dims": required})
        return tuple(steps)

    # -- per-op planning ---------------------------------------------------------

    def _plan_op(self, op: Operation) -> _OpPlan:
        """The op's lowering plan, keyed ``(op class, *adjacent sharding
        iids)`` in the plan table: looked up there, or built and entered."""
        # The store is probed directly, sharding() supplying the default
        # on a miss: this runs for every op of every lowering.
        stored = self.env._shardings.get
        sharding = self.env.sharding
        key = (op_class(op), *[s.iid if (s := stored(v)) is not None
                               else sharding(v).iid
                               for v in (*op.operands, *op.results)])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._build_op_plan(op)
        return plan

    def _build_op_plan(self, op: Operation) -> _OpPlan:
        """Compute the op's lowering plan from its adjacent shardings:
        decide each operand's required layout and chain, localize the
        attrs, and infer the op's local result types from the reconciled
        operand types, raising :class:`LoweringError` when one disagrees
        with the shape its result layout implies."""
        rule = rule_for(op)
        # A constant's payload is global: it is computed whole and then
        # sliced, so no factor explains a constant's result tiling.
        explains = op.opcode != "constant"

        n_in = len(op.operands)
        operand_shardings = tuple(
            self.env.sharding(operand) for operand in op.operands
        )
        required: List[Dict[int, List[str]]] = [dict() for _ in range(n_in)]
        allowed_pending: List[Set[str]] = [set() for _ in range(n_in)]
        unexplained: List[Dict[int, List[str]]] = [
            dict() for _ in range(len(op.results))
        ]

        def require(i: int, dim: int, axis: str,
                    template_sharding: Sharding, template_dim: int):
            """Append axis to required[i][dim], ordering by the template
            (then by the operand's own env layout)."""
            axes = required[i].setdefault(dim, [])
            if axis in axes:
                return
            template = list(template_sharding.dim_axes[template_dim])
            env_layout = list(operand_shardings[i].dim_axes[dim])
            # The template's order comes first: the operand's tile must
            # nest its axes as the result's does (an operand laid out
            # [{b}] sum{a} feeding a result [{a,b}] is gathered and
            # re-sliced, not scattered into [{b,a}]).
            desired = [a for a in template if a == axis or a in axes]
            for a in env_layout:
                if (a == axis or a in axes) and a not in desired:
                    desired.append(a)
            required[i][dim] = desired

        # Explain result tilings through factors.
        for r, result in enumerate(op.results):
            result_sharding = self.env.sharding(result)
            for d, axes in enumerate(result_sharding.dim_axes):
                for axis in axes:
                    fid = rule.dim_factors[n_in + r][d] if explains else None
                    entries = [] if fid is None else [
                        (i, dd) for i, dd, is_operand in rule.factors[fid][0]
                        if is_operand
                    ]
                    # An operand dim the accumulated axes do not divide
                    # (reshape (2,2)->(4,) tiled 4-way) cannot carry the
                    # tiling: compute un-tiled, slice the result after —
                    # and so must every inner axis of that result dim, or
                    # the trailing slice would nest outside-in.
                    if fid is None or d in unexplained[r] or any(
                        op.operands[i].type.shape[dd] % self.mesh.group_size(
                            set(required[i].get(dd, ())) | {axis})
                        for i, dd in entries
                    ):
                        unexplained[r].setdefault(d, []).append(axis)
                        continue
                    for i, dd in entries:
                        require(i, dd, axis, result_sharding, d)
            # Explain result pendings: deferred from operands, or introduced
            # by a contracting factor whose operands are tiled.
            for axis in result_sharding.sum_axes:
                pending_idx = [
                    i for i in range(n_in)
                    if axis in operand_shardings[i].sum_axes
                ]
                if pending_idx and may_defer(op, axis, pending_idx):
                    for i in pending_idx:
                        allowed_pending[i].add(axis)
                    continue
                applied = False
                for entries, reduce in rule.factors:
                    if not reduce:
                        continue
                    operand_dims = [(i, dd) for i, dd, is_operand in entries
                                    if is_operand]
                    if all(operand_shardings[i].tile_dim_of(axis) == dd
                           for i, dd in operand_dims):
                        for i, dd in operand_dims:
                            require(i, dd, axis, operand_shardings[i], dd)
                        applied = True
                        break
                if not applied and pending_idx:
                    # Fall back to passing partials through (still linear in
                    # the pending operand by propagation's construction).
                    for i in pending_idx:
                        allowed_pending[i].add(axis)

        # Reconciliation lays every operand out exactly per required[i].
        chains = []
        operand_types = []
        for i, operand in enumerate(op.operands):
            actual = operand_shardings[i]
            local_type = operand.type.with_shape(
                self._local_shape(operand, actual))
            chain = self._chain(local_type, actual, required[i],
                                allowed_pending[i])
            chains.append(chain)
            operand_types.append(
                local_type if chain is None else chain.steps[-1][2])

        # Localize shape-carrying attrs against the explained result
        # sharding.  Identity attrs stay out: every op of the class shares
        # the plan, and emission gives each op its own.
        attrs = dict(structural_attrs(op))
        result_shardings_local = []
        for r, result in enumerate(op.results):
            sharding = self.env.sharding(result)
            dims = tuple(
                tuple(a for a in axes
                      if a not in unexplained[r].get(d, []))
                for d, axes in enumerate(sharding.dim_axes)
            )
            result_shardings_local.append(
                Sharding(dims, sharding.sum_axes, sharding.pinned))
        if op.opcode in _RESULT_SHAPE_ATTR:
            key = _RESULT_SHAPE_ATTR[op.opcode]
            attrs[key] = self._local_shape(
                op.results[0], result_shardings_local[0]
            )
        elif op.opcode == "slice":
            starts = list(attrs["starts"])
            limits = list(attrs["limits"])
            for d, axes in enumerate(result_shardings_local[0].dim_axes):
                if axes:
                    starts[d] = 0
                    limits[d] = operand_types[0].shape[d]
            attrs["starts"] = tuple(starts)
            attrs["limits"] = tuple(limits)

        result_types = tuple(infer_types(op.opcode, operand_types, attrs))
        trailing = []
        for r, (result, result_type, local_sharding) in enumerate(
                zip(op.results, result_types, result_shardings_local)):
            expected = self._local_shape(result, local_sharding)
            if result_type.shape != expected:
                raise LoweringError(
                    f"lowering {op.opcode}: local result shape "
                    f"{result_type.shape} != expected {expected}"
                )
            if not unexplained[r]:
                trailing.append(None)
                continue
            full_sharding = self.env.sharding(result)
            slice_dims = tuple(
                tuple(unexplained[r].get(d, ()))
                for d in range(full_sharding.rank)
            )
            spec = {
                "dims": slice_dims,
                "sizes": self._sizes([a for s in slice_dims for a in s]),
                "operand_dims": local_sharding.dim_axes,
                "result_dims": full_sharding.dim_axes,
            }
            trailing.append((spec, tuple(
                infer_types("all_slice", [result_type], spec))))
        opdef = opdefs.get(op.opcode)
        flops = opdef.flops(operand_types, attrs) if opdef.flops else 0.0

        return _OpPlan(
            operand_shardings=operand_shardings,
            required=tuple(required),
            allowed_pending=tuple(allowed_pending),
            chains=tuple(chains),
            attrs=attrs,
            result_types=result_types,
            trailing=tuple(trailing),
            flops=flops,
        )

    # -- loops (scan / fori_loop / while_loop) ------------------------------------

    def _plan_loop(self, op: Operation) -> _LoopPlan:
        """Decide a loop op's lowering from the env: operands are
        reconciled to the body's carry layouts; the body runs under those
        layouts (replicated step index first) and returns its carries in
        them; ``while_loop``'s cond region runs every iteration over the
        carries in their body layouts and its predicate is reconciled
        replicated, so every device follows the same branch in lockstep
        (the contract the executor follows); ``pipeline_*`` pricing attrs
        are injected from the env's pipeline marker (see
        :func:`repro.core.pipeline.pipeline_schedule_attrs`); and a result
        whose env tiling differs from its carry's is reconciled after the
        loop."""
        body = op.regions[0]
        num_carries = op.attrs.get("num_carries", len(op.operands))
        param_shardings = [
            self.env.sharding(body.params[i + 1])
            for i in range(len(op.operands))
        ]
        carry_shardings = param_shardings[:num_carries]
        step = [Sharding.replicated(0)]
        regions = [(step + param_shardings, carry_shardings)]
        for cond in op.regions[1:]:
            regions.append((
                step + carry_shardings,
                [Sharding.replicated(r.type.rank) for r in cond.results],
            ))
        attrs = dict(op.attrs)
        attrs.update(pipeline_mod.pipeline_schedule_attrs(
            op, self.env, self.mesh
        ))
        tails = []
        for carry, result in zip(carry_shardings, op.results):
            target = self.env.sharding(result)
            tails.append(None if target.dim_axes == carry.dim_axes else (
                carry.without_sum(carry.sum_axes),
                required_of(target),
            ))
        return _LoopPlan(
            operand_shardings=tuple(
                self.env.sharding(operand) for operand in op.operands
            ),
            required=tuple(required_of(s) for s in param_shardings),
            regions=tuple(regions),
            attrs=attrs,
            tails=tuple(tails),
        )

    def _emit_loop(self, op: Operation, builder, value_map) -> None:
        """Emit a loop op per its :meth:`_plan_loop`."""
        plan = self._plan_loop(op)
        new_operands = [
            self._reconciled(builder, value_map[operand],
                             plan.operand_shardings[i], plan.required[i],
                             set())
            for i, operand in enumerate(op.operands)
        ]
        regions = [
            self.lower_function(region, name, fixed_param_shardings=params,
                                result_targets=targets)
            for region, name, (params, targets)
            in zip(op.regions, ("body", "cond"), plan.regions)
        ]
        new_results = builder.emit(op.opcode, new_operands, plan.attrs,
                                   regions).results
        for result, value, tail in zip(op.results, new_results, plan.tails):
            if tail is not None:
                value = self._reconciled(builder, value, *tail, set())
            value_map[result] = value
