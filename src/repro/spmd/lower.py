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
classic device-local :class:`Function` — every value has its device-local
shape, communication is explicit via mesh-axis collectives, shape-carrying
attrs (broadcast/reshape/iota/slice) are localized, and every emission is
type-checked by the builder's inference.  This is the only thing in the
tree that emits device-local code; :func:`lower` (and therefore
``partir_jit``, the executor and the reference cost pipeline) run it.

**Plan/execute split.**  Lowering an op is two phases: :meth:`Lowerer.
_plan_op` computes the op's reconciliation *plan* (required per-operand
layouts, allowed-pending sets, localized attrs, expected local shapes,
trailing slices) purely from the adjacent shardings, and :meth:`Lowerer.
_execute_plan` emits a plan.  Loops split the same way: :meth:`Lowerer.
_plan_loop` decides the operand/carry layouts, each region's parameter
layouts and result targets, the injected ``pipeline_*`` attrs and which
results need a reconcile after the loop; :meth:`Lowerer._emit_loop` emits
it.  The search's estimator (:mod:`repro.sim.costmodel`) calls the two
planners — and nothing else here — to price a program without lowering
it, re-pricing only ops whose neighborhood changed, mirroring incremental
propagation.

**One plan per structural class.**  An op's plan is a pure function of
its structural class (:func:`op_class`: opcode, attrs, operand and result
types, sharding rule), its adjacent shardings and the mesh; it holds no
:class:`Value`, and the builder copies the attrs it emits.  So plans are
shared: a function carries one plan table per mesh (:func:`plan_table`,
a view of the function that never rides a pickle), keyed ``(class,
operand sharding iids, result sharding iids)``, and every lowerer built
for the function — each :func:`lower` call and the estimator's — reads
and fills it.  L identical layers are planned once, and so is the
unchanged rest of a program re-lowered after each tactic.  What keeps
the materializing pipeline an independent reference is that the key is
complete: ``tests/test_plan_table.py`` checks, on every model family,
that a plan served from a warm table equals a freshly built one and that
a warm :func:`lower` matches a cold one op for op.

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
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import LoweringError
from repro.ir import opdefs
from repro.ir.function import Function, FunctionBuilder
from repro.ir.values import Operation, Value, canonical_attr
from repro.mesh import Mesh
from repro.core import pipeline as pipeline_mod
from repro.core import rules as rules_mod
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


@dataclasses.dataclass(frozen=True)
class _OpPlan:
    """The per-op lowering decisions, decoupled from any emission target.

    Everything here is a pure function of the op's structural class, the
    shardings of its adjacent values and the mesh — the key of the plan
    table (:func:`plan_table`) that shares one instance between every op
    and every lowering with that key.  Execution and pricing only read a
    plan; nothing may write to one.
    """

    operand_shardings: Tuple[Sharding, ...]
    required: Tuple[Dict[int, List[str]], ...]
    allowed_pending: Tuple[Set[str], ...]
    attrs: dict
    expected_shapes: Tuple[Tuple[int, ...], ...]
    trailing: Tuple[Optional[dict], ...]
    # For the estimator, which prices a plan without emitting it: the
    # device-local result types and the op's local FLOPs under this plan's
    # layouts.  _execute_plan ignores these; the builder re-infers.
    result_types: Tuple = ()
    flops: float = 0.0


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


#: Structural key -> interned class id, process-wide (see :func:`op_class`).
_OP_CLASSES: Dict[tuple, int] = {}
_class_ids = itertools.count()
#: A constant whose payload is larger than this has no class (is planned
#: afresh at every lowering): its key would keep a copy of the payload.
_KEYED_PAYLOAD_BYTES = 256


def op_class(op: Operation) -> Optional[int]:
    """The interned id of ``op``'s structural class: everything its plan
    reads besides its adjacent shardings and the mesh — opcode, attrs,
    operand and result types, and its sharding rule (which follows from
    the rest except for ``scatter_add``, whose rule asks whether its
    operand is produced as zeros).  A constant's payload enters by its
    bytes, not by a digest: traced constants are scalars, and hashing
    would cost more than planning.  ``None`` for a constant past
    ``_KEYED_PAYLOAD_BYTES``.  Loop ops are planned by
    :meth:`Lowerer._plan_loop` and never keyed.  Cached on the op."""
    try:
        return op._op_class
    except AttributeError:
        pass
    if op.opcode == "constant":
        attrs = dict(op.attrs)
        payload = attrs.pop("value")
        if payload.nbytes > _KEYED_PAYLOAD_BYTES:
            op._op_class = None
            return None
        rendered = (payload.tobytes(), canonical_attr(attrs))
        rule = None
    else:
        rendered = canonical_attr(op.attrs)
        rule = rules_mod.rule_for(op)
    key = (op.opcode, rendered, tuple([v.type for v in op.operands]),
           tuple([r.type for r in op.results]), rule)
    # next() on a count is atomic, so racing first sightings of one key
    # agree on the id setdefault keeps.
    op._op_class = _OP_CLASSES.setdefault(key, next(_class_ids))
    return op._op_class


def plan_table(function: Function, mesh: Mesh) -> Dict[tuple, _OpPlan]:
    """``function``'s lowering-plan table for ``mesh``: ``(op class,
    operand sharding iids, result sharding iids) -> plan``, for the ops of
    the function and of its regions.  A view of the function
    (:meth:`Function.derived`): created on first use, dropped if the
    function grows, never pickled."""
    return function.derived(("plan_table", tuple(sorted(mesh.axes.items()))),
                            lambda _: {})


def required_of(sharding: Sharding) -> Dict[int, List[str]]:
    """The ``required`` layout that is exactly ``sharding``'s tiling."""
    return {d: list(axes) for d, axes in enumerate(sharding.dim_axes)}


class Lowerer:
    def __init__(self, env: ShardingEnv, function: Optional[Function] = None):
        self.env = env
        self.mesh = env.mesh
        #: ``function``'s shared plan table for this mesh, or a private one
        #: for a lowerer built only to reconcile.
        self._plans = ({} if function is None
                       else plan_table(function, self.mesh))
        # Reconciliations that materialise a pending reduction are cached so
        # each gradient is reduced exactly once (XLA CSEs the all_reduce;
        # the fused form is the paper's one reduce_scatter per gradient).
        # Pure gathers are deliberately NOT cached: parameters are gathered
        # per use site (FSDP's forward + backward all_gathers).
        self._reduce_cache: Dict[Tuple, Tuple[Value, Sharding]] = {}

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
            value, _ = self._reconcile(
                builder, value_map[result], actual, required_of(target),
                set()
            )
            results.append(value)
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
        elif op.opcode == "tag" and self._tag_transparent(op):
            value_map[op.results[0]] = value_map[op.operands[0]]
        else:
            self._execute_plan(op, self._plan_op(op), builder, value_map)

    # -- reconciliation ---------------------------------------------------------

    def _reconcile(
        self,
        builder: FunctionBuilder,
        value: Value,
        actual: Sharding,
        required: Dict[int, List[str]],
        allowed_pending: Set[str],
    ):
        """Convert ``value`` (laid out per ``actual``) to the ``required``
        per-dim layout, emitting collectives as needed."""
        rank = actual.rank
        # 1. Materialize pending sums the consumer cannot absorb.
        ar_axes = tuple(
            a for a in sorted(actual.sum_axes) if a not in allowed_pending
        )
        cache_key = None
        if ar_axes:
            cache_key = (
                id(builder), value.uid, ar_axes,
                tuple(tuple(required.get(d, [])) for d in range(rank)),
            )
            cached = self._reduce_cache.get(cache_key)
            if cached is not None:
                return cached
        if ar_axes:
            value = builder.emit1(
                "all_reduce",
                [value],
                {"axes": ar_axes, "kind": "add", "sizes": self._sizes(ar_axes)},
            )
            actual = actual.without_sum(frozenset(ar_axes))
        # 2/3. Per-dim layout change: keep the longest common prefix, gather
        # the rest of the actual layout, then slice in the required suffix.
        gather_dims = []
        slice_dims = []
        new_dims = []
        for d in range(rank):
            a_axes = list(actual.dim_axes[d])
            r_axes = list(required.get(d, []))
            prefix = 0
            while (prefix < len(a_axes) and prefix < len(r_axes)
                   and a_axes[prefix] == r_axes[prefix]):
                prefix += 1
            gather_dims.append(tuple(a_axes[prefix:]))
            slice_dims.append(tuple(r_axes[prefix:]))
            new_dims.append(tuple(r_axes))
        if any(gather_dims):
            mid_dims = tuple(
                tuple(actual.dim_axes[d][: len(actual.dim_axes[d])
                                         - len(gather_dims[d])])
                for d in range(rank)
            )
            value = builder.emit1(
                "all_gather",
                [value],
                {
                    "dims": tuple(gather_dims),
                    "sizes": self._sizes([a for g in gather_dims for a in g]),
                    "operand_dims": actual.dim_axes,
                    "result_dims": mid_dims,
                },
            )
            actual = dataclasses.replace(actual, dim_axes=mid_dims)
        if any(slice_dims):
            result_dims = tuple(new_dims)
            value = builder.emit1(
                "all_slice",
                [value],
                {
                    "dims": tuple(slice_dims),
                    "sizes": self._sizes([a for s in slice_dims for a in s]),
                    "operand_dims": actual.dim_axes,
                    "result_dims": result_dims,
                },
            )
            actual = dataclasses.replace(actual, dim_axes=result_dims)
        if cache_key is not None:
            self._reduce_cache[cache_key] = (value, actual)
        return value, actual

    # -- per-op planning ---------------------------------------------------------

    def _plan_op(self, op: Operation) -> _OpPlan:
        """The op's lowering plan: looked up in the plan table, or built
        and entered there."""
        cls = op_class(op)
        if cls is None:
            return self._build_op_plan(op)
        # Every env-stored sharding is the canonical interned instance
        # (set_sharding interns; the replicated default is interned).
        sharding = self.env.sharding
        key = (cls, *[sharding(v)._iid for v in op.operands],
               *[sharding(r)._iid for r in op.results])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._build_op_plan(op)
        return plan

    def _build_op_plan(self, op: Operation) -> _OpPlan:
        """Compute the op's lowering plan from its adjacent shardings."""
        rule = None
        if op.opcode != "constant":
            rule = rules_mod.rule_for(op)

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
            (the operand's own env layout first, then appended)."""
            axes = required[i].setdefault(dim, [])
            if axis in axes:
                return
            template = list(template_sharding.dim_axes[template_dim])
            env_layout = list(operand_shardings[i].dim_axes[dim])
            # Build the union order: operand env layout first (max prefix
            # overlap with the actual layout), then template order.
            desired = [a for a in env_layout if a == axis or a in axes]
            for a in template:
                if (a == axis or a in axes) and a not in desired:
                    desired.append(a)
            required[i][dim] = desired

        # Explain result tilings through factors.
        for r, result in enumerate(op.results):
            result_sharding = self.env.sharding(result)
            for d, axes in enumerate(result_sharding.dim_axes):
                for axis in axes:
                    fid = rule.factor_of("out", r, d) if rule else None
                    entries = [] if fid is None else [
                        (i, dd) for side, i, dd in rule.factors[fid].entries
                        if side == "in"
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
                if rule is not None:
                    for factor in rule.factors:
                        if not factor.reduce:
                            continue
                        entries = factor.in_entries()
                        if all(
                            operand_shardings[i].tile_dim_of(axis) == dd
                            for _, i, dd in entries
                        ):
                            for _, i, dd in entries:
                                require(i, dd, axis, operand_shardings[i], dd)
                            applied = True
                            break
                if not applied and pending_idx:
                    # Fall back to passing partials through (still linear in
                    # the pending operand by propagation's construction).
                    for i in pending_idx:
                        allowed_pending[i].add(axis)

        # Localize shape-carrying attrs against the explained result sharding.
        attrs = dict(op.attrs)
        result_shardings_local = []
        for r, result in enumerate(op.results):
            sharding = self.env.sharding(result)
            dims = tuple(
                tuple(a for a in axes
                      if a not in unexplained[r].get(d, []))
                for d, axes in enumerate(sharding.dim_axes)
            )
            result_shardings_local.append(
                dataclasses.replace(sharding, dim_axes=dims)
            )
        if op.opcode in _RESULT_SHAPE_ATTR:
            key = _RESULT_SHAPE_ATTR[op.opcode]
            attrs[key] = self._local_shape(
                op.results[0], result_shardings_local[0]
            )
        elif op.opcode == "slice":
            # The reconciled operand's local shape: reconciliation lays the
            # operand out exactly per required[0], dim by dim.
            in_dims = tuple(
                tuple(required[0].get(d, ()))
                for d in range(op.operands[0].type.rank)
            )
            local_in = Sharding(in_dims).local_shape(
                op.operands[0].type.shape, self.mesh
            )
            starts = list(attrs["starts"])
            limits = list(attrs["limits"])
            for d, axes in enumerate(result_shardings_local[0].dim_axes):
                if axes:
                    starts[d] = 0
                    limits[d] = local_in[d]
            attrs["starts"] = tuple(starts)
            attrs["limits"] = tuple(limits)

        expected_shapes: List[Tuple[int, ...]] = []
        trailing: List[Optional[dict]] = []
        for r, (result, local_sharding) in enumerate(
            zip(op.results, result_shardings_local)
        ):
            expected_shapes.append(self._local_shape(result, local_sharding))
            if unexplained[r]:
                full_sharding = self.env.sharding(result)
                slice_dims = tuple(
                    tuple(unexplained[r].get(d, ()))
                    for d in range(full_sharding.rank)
                )
                trailing.append({
                    "dims": slice_dims,
                    "sizes": self._sizes(
                        [a for s in slice_dims for a in s]
                    ),
                    "operand_dims": local_sharding.dim_axes,
                    "result_dims": full_sharding.dim_axes,
                })
            else:
                trailing.append(None)

        # What the estimator prices from: reconciliation lays every operand
        # out exactly per required[i], so the local operand types (and
        # hence the op's local FLOPs) are already determined here.
        local_operand_types = []
        for i, operand in enumerate(op.operands):
            dims = tuple(
                tuple(required[i].get(d, ()))
                for d in range(operand.type.rank)
            )
            local_operand_types.append(operand.type.with_shape(
                Sharding(dims).local_shape(operand.type.shape, self.mesh)
            ))
        result_types = tuple(
            result.type.with_shape(shape)
            for result, shape in zip(op.results, expected_shapes)
        )
        opdef = opdefs.get(op.opcode)
        flops = opdef.flops(local_operand_types, attrs) if opdef.flops else 0.0

        return _OpPlan(
            operand_shardings=operand_shardings,
            required=tuple(required),
            allowed_pending=tuple(allowed_pending),
            attrs=attrs,
            expected_shapes=tuple(expected_shapes),
            trailing=tuple(trailing),
            result_types=result_types,
            flops=flops,
        )

    # -- per-op execution --------------------------------------------------------

    def _execute_plan(self, op: Operation, plan: _OpPlan, builder,
                      value_map) -> None:
        """Emit a plan: reconcile operands, emit the op, slice unexplained
        result axes back in, and bind the result values."""
        new_operands = []
        for i, operand in enumerate(op.operands):
            value, _ = self._reconcile(
                builder,
                value_map[operand],
                plan.operand_shardings[i],
                plan.required[i],
                plan.allowed_pending[i],
            )
            new_operands.append(value)

        new_results = builder.emit(op.opcode, new_operands,
                                   plan.attrs).results

        for r, result in enumerate(op.results):
            new_value = new_results[r]
            if new_value.type.shape != plan.expected_shapes[r]:
                raise LoweringError(
                    f"lowering {op.opcode}: local result shape "
                    f"{new_value.type.shape} != expected "
                    f"{plan.expected_shapes[r]}"
                )
            if plan.trailing[r] is not None:
                new_value = builder.emit1(
                    "all_slice", [new_value], plan.trailing[r]
                )
            new_value.name = result.name
            value_map[result] = new_value

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
                dataclasses.replace(carry, sum_axes=frozenset()),
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
            self._reconcile(builder, value_map[operand],
                            plan.operand_shardings[i], plan.required[i],
                            set())[0]
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
                value, _ = self._reconcile(builder, value, *tail, set())
            value_map[result] = value
