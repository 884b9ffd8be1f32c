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

**Sink architecture.**  The lowerer itself only *decides* what to emit; the
emission target is a pluggable sink:

* :class:`MaterializeSink` wraps a :class:`FunctionBuilder` and produces the
  classic device-local :class:`Function` — every value has its device-local
  shape, communication is explicit via mesh-axis collectives, shape-carrying
  attrs (broadcast/reshape/iota/slice) are localized.  This is what
  :func:`lower` (and therefore ``partir_jit`` and the executor) use.
* :class:`repro.sim.costmodel.CostSink` prices the same emission stream
  directly — applying the collective-fusion peepholes in-stream and
  accumulating the cost terms of :mod:`repro.sim.terms` — without
  allocating a single :class:`Operation`/:class:`Value`.  The automatic-
  partitioning search prices loop bodies and records reconcile chains
  through it.

**Plan/execute split.**  Per-op lowering is two phases: :meth:`Lowerer.
_plan_op` computes the op's reconciliation *plan* (required per-operand
layouts, allowed-pending sets, localized attrs, expected local shapes,
trailing slices) purely from the adjacent shardings, and :meth:`Lowerer.
_execute_plan` replays a plan into a sink.  A plan is a pure function of
``(op, operand shardings, result shardings)`` — the streaming cost
evaluator memoizes plans on the shardings' cached signatures and only
re-plans ops whose neighborhood changed, mirroring incremental propagation
(its per-evaluation sum is one fold over every op's memoized segment).

The sink protocol (duck-typed):

* ``add_param(type, name) -> handle`` / ``set_input_names(names)``
* ``emit(opcode, operands, attrs, regions=None) -> [handle, ...]``
* ``set_name(handle, name)``
* ``subsink(name) -> sink`` — a fresh sink for a region (scan body)
* ``finish(results, names) -> payload`` — the lowered artifact; region
  payloads are passed back through ``emit``'s ``regions`` argument.

Handles expose ``.type`` (a :class:`TensorType`) and a per-lowering unique
``.uid``; :class:`Value` satisfies this natively.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import LoweringError
from repro.ir import opdefs
from repro.ir.function import Function, FunctionBuilder
from repro.ir.values import Operation, Value
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


class MaterializeSink:
    """Sink that builds real device-local IR through a FunctionBuilder."""

    __slots__ = ("builder",)

    def __init__(self, name: str):
        self.builder = FunctionBuilder(name)

    def add_param(self, type, name=None):
        return self.builder.function.add_param(type, name=name)

    def set_input_names(self, names) -> None:
        self.builder.function.input_names = list(names)

    def emit(self, opcode, operands, attrs, regions=None):
        return self.builder.emit(opcode, operands, attrs, regions).results

    def emit_planned(self, opcode, operands, attrs, plan):
        # Materializing ignores the plan's precomputed types: the builder
        # re-infers them, keeping lower()'s verification byte-for-byte.
        return self.builder.emit(opcode, operands, attrs).results

    def set_name(self, handle, name) -> None:
        handle.name = name

    def subsink(self, name: str) -> "MaterializeSink":
        return MaterializeSink(name)

    def finish(self, results, names) -> Function:
        return self.builder.ret(*results, names=names)


def lower(function: Function, env: ShardingEnv) -> LoweredModule:
    """Lower ``function`` under ``env`` to a device-local function."""
    lowerer = Lowerer(env)
    input_shardings = [env.sharding(p) for p in function.params]
    sink = MaterializeSink(function.name + "_spmd")
    local = lowerer.lower_function(function, sink)
    output_shardings = [
        env.sharding(r).without_sum(env.sharding(r).sum_axes)
        for r in function.results
    ]
    return LoweredModule(local, env.mesh, input_shardings, output_shardings)


@dataclasses.dataclass
class _OpPlan:
    """The per-op lowering decisions, decoupled from any emission target.

    Everything here is a pure function of the op (opcode, attrs, types) and
    the shardings of its adjacent values — the memo key the streaming
    evaluator uses.  Plans are immutable after construction: execution only
    reads them, so one plan may be replayed into many sinks.
    """

    operand_shardings: Tuple[Sharding, ...]
    required: Tuple[Dict[int, List[str]], ...]
    allowed_pending: Tuple[Set[str], ...]
    attrs: dict
    expected_shapes: Tuple[Tuple[int, ...], ...]
    trailing: Tuple[Optional[dict], ...]
    # Precomputed for the cost path (sink.emit_planned): the device-local
    # result types/sizes and the op's local FLOPs under this plan's layouts.
    # The materializing sink ignores these and re-infers, so the classic
    # lower() keeps its full type-inference verification.
    result_types: Tuple = ()
    result_nbytes: Tuple[int, ...] = ()
    flops: float = 0.0


class Lowerer:
    def __init__(self, env: ShardingEnv):
        self.env = env
        self.mesh = env.mesh
        # Reconciliations that materialise a pending reduction are cached so
        # each gradient is reduced exactly once (XLA CSEs the all_reduce;
        # the fused form is the paper's one reduce_scatter per gradient).
        # Pure gathers are deliberately NOT cached: parameters are gathered
        # per use site (FSDP's forward + backward all_gathers).
        self._reduce_cache: Dict[Tuple, Tuple[object, Sharding]] = {}

    # -- helpers ------------------------------------------------------------

    def _sizes(self, axes) -> Dict[str, int]:
        return {a: self.mesh.size(a) for a in axes}

    def _local_shape(self, value: Value, sharding: Sharding) -> Tuple[int, ...]:
        return sharding.local_shape(value.type.shape, self.mesh)

    # -- function lowering -----------------------------------------------------

    def lower_function(
        self,
        function: Function,
        sink,
        fixed_param_shardings: Optional[List[Sharding]] = None,
        result_targets: Optional[List[Sharding]] = None,
    ):
        value_map: Dict[Value, object] = {}
        for i, param in enumerate(function.params):
            sharding = (
                fixed_param_shardings[i]
                if fixed_param_shardings is not None
                else self.env.sharding(param)
            )
            local = sink.add_param(
                param.type.with_shape(self._local_shape(param, sharding)),
                name=param.name,
            )
            value_map[param] = local
        sink.set_input_names(function.input_names)

        for op in function.ops:
            self._lower_op(op, sink, value_map)

        # Reconcile results to their targets (default: env sharding with all
        # pending sums materialized — outputs are never partial).
        results = []
        for i, result in enumerate(function.results):
            actual = self.env.sharding(result)
            target = (
                result_targets[i] if result_targets is not None
                else actual.without_sum(actual.sum_axes)
            )
            required = {
                d: list(axes) for d, axes in enumerate(target.dim_axes)
            }
            value, _ = self._reconcile(
                sink, value_map[result], actual, required, set()
            )
            results.append(value)
        return sink.finish(results, function.output_names)

    def _tag_transparent(self, op: Operation) -> bool:
        """Is this ``tag`` marker droppable here — operand and result agree
        on a sharding (always true at a propagation fixed point, since the
        tag rule ties every dimension 1:1 and pending sums defer through
        it)?  Interned shardings make the check a pointer comparison."""
        return (self.env.sharding(op.operands[0])
                is self.env.sharding(op.results[0]))

    def _lower_op(self, op: Operation, sink, value_map) -> None:
        """Lower one op into the sink.  Overridden by the streaming
        evaluator to memoize plans; scan is always re-planned (its lowering
        reads the whole body, not just adjacent shardings).

        ``tag`` markers are pure annotations: whenever operand and result
        agree on a sharding (any propagation fixed point) the op is dropped
        from device-local code — the result simply aliases the operand's
        lowered handle.  The streaming cost paths apply the identical skip,
        keeping the materialized and streamed estimates bit-identical.
        """
        if op.opcode in opdefs.LOOP_OPS:
            self._emit_loop(op, sink, value_map)
        elif op.opcode == "tag" and self._tag_transparent(op):
            value_map[op.results[0]] = value_map[op.operands[0]]
        else:
            self._execute_plan(op, self._plan_op(op), sink, value_map)

    # -- reconciliation ---------------------------------------------------------

    def _reconcile(
        self,
        sink,
        value,
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
                id(sink), value.uid, ar_axes,
                tuple(tuple(required.get(d, [])) for d in range(rank)),
            )
            cached = self._reduce_cache.get(cache_key)
            if cached is not None:
                return cached
        if ar_axes:
            value = sink.emit(
                "all_reduce",
                [value],
                {"axes": ar_axes, "kind": "add", "sizes": self._sizes(ar_axes)},
            )[0]
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
            value = sink.emit(
                "all_gather",
                [value],
                {
                    "dims": tuple(gather_dims),
                    "sizes": self._sizes([a for g in gather_dims for a in g]),
                    "operand_dims": actual.dim_axes,
                    "result_dims": mid_dims,
                },
            )[0]
            actual = dataclasses.replace(actual, dim_axes=mid_dims)
        if any(slice_dims):
            result_dims = tuple(new_dims)
            value = sink.emit(
                "all_slice",
                [value],
                {
                    "dims": tuple(slice_dims),
                    "sizes": self._sizes([a for s in slice_dims for a in s]),
                    "operand_dims": actual.dim_axes,
                    "result_dims": result_dims,
                },
            )[0]
            actual = dataclasses.replace(actual, dim_axes=result_dims)
        if cache_key is not None:
            self._reduce_cache[cache_key] = (value, actual)
        return value, actual

    # -- per-op planning ---------------------------------------------------------

    def _plan_op(self, op: Operation) -> _OpPlan:
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
                if pending_idx and may_defer(self.env, op, axis, pending_idx):
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

        # Precompute what the cost path needs so it can skip type inference:
        # reconciliation lays every operand out exactly per required[i], so
        # the local operand types (and hence the op's local FLOPs) are
        # already determined here.
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
            result_nbytes=tuple(t.nbytes for t in result_types),
            flops=flops,
        )

    # -- per-op execution --------------------------------------------------------

    def _execute_plan(self, op: Operation, plan: _OpPlan, sink,
                      value_map) -> None:
        """Replay a plan into a sink: reconcile operands, emit the op, slice
        unexplained result axes back in, and bind the result handles."""
        new_operands = []
        for i, operand in enumerate(op.operands):
            value, _ = self._reconcile(
                sink,
                value_map[operand],
                plan.operand_shardings[i],
                plan.required[i],
                plan.allowed_pending[i],
            )
            new_operands.append(value)

        new_results = sink.emit_planned(op.opcode, new_operands, plan.attrs,
                                        plan)

        for r, result in enumerate(op.results):
            new_value = new_results[r]
            if new_value.type.shape != plan.expected_shapes[r]:
                raise LoweringError(
                    f"lowering {op.opcode}: local result shape "
                    f"{new_value.type.shape} != expected "
                    f"{plan.expected_shapes[r]}"
                )
            if plan.trailing[r] is not None:
                new_value = sink.emit(
                    "all_slice", [new_value], plan.trailing[r]
                )[0]
            sink.set_name(new_value, result.name)
            value_map[result] = new_value

    # -- loops (scan / fori_loop / while_loop) ------------------------------------

    def _emit_loop(self, op: Operation, sink, value_map) -> None:
        """Lower a loop op: reconcile operands to the body's carry layouts,
        lower the body (and, for ``while_loop``, the cond region — fixed
        replicated step + carry layouts in, replicated predicate out, the
        lockstep contract the executor follows), and emit the loop with any
        ``pipeline_*`` pricing attrs injected from the env's pipeline
        marker (see :func:`repro.core.pipeline.pipeline_schedule_attrs`)."""
        body = op.regions[0]
        num_carries = op.attrs.get("num_carries", len(op.operands))
        operand_shardings = [
            self.env.sharding(body.params[i + 1])
            for i in range(len(op.operands))
        ]
        carry_shardings = operand_shardings[:num_carries]
        new_operands = []
        for i, operand in enumerate(op.operands):
            required = {
                d: list(axes)
                for d, axes in enumerate(operand_shardings[i].dim_axes)
            }
            value, _ = self._reconcile(
                sink, value_map[operand], self.env.sharding(operand),
                required, set(),
            )
            new_operands.append(value)
        param_shardings = [Sharding.replicated(0)] + operand_shardings
        body_sink = sink.subsink("body")
        local_body = self.lower_function(
            body, body_sink,
            fixed_param_shardings=param_shardings,
            result_targets=carry_shardings,
        )
        regions = [local_body]
        if len(op.regions) > 1:
            # while_loop's cond: runs every iteration over the carries in
            # their body layouts; the predicate is reconciled replicated so
            # every device follows the same branch in lockstep.
            cond = op.regions[1]
            cond_sink = sink.subsink("cond")
            regions.append(self.lower_function(
                cond, cond_sink,
                fixed_param_shardings=(
                    [Sharding.replicated(0)] + carry_shardings
                ),
                result_targets=[
                    Sharding.replicated(r.type.rank) for r in cond.results
                ],
            ))
        attrs = dict(op.attrs)
        attrs.update(pipeline_mod.pipeline_schedule_attrs(
            op, self.env, self.mesh
        ))
        new_results = sink.emit(op.opcode, new_operands, attrs,
                                regions=regions)
        for i, result in enumerate(op.results):
            value = new_results[i]
            env_sharding = self.env.sharding(result)
            if env_sharding.dim_axes != carry_shardings[i].dim_axes:
                required = {
                    d: list(axes)
                    for d, axes in enumerate(env_sharding.dim_axes)
                }
                value, _ = self._reconcile(
                    sink, value,
                    dataclasses.replace(
                        carry_shardings[i], sum_axes=frozenset()
                    ),
                    required, set(),
                )
            value_map[result] = value
