"""The references the library's fast paths are checked against.

``reference_cost`` prices a canonical action set from scratch through the
materializing pipeline — fresh env, one ``propagate`` per action,
``lower``, ``costmodel.estimate`` — sharing nothing with ``Evaluator``
beyond the action vocabulary, propagation and the function's
lowering-plan and chain tables.  ``tests/test_plan_table.py`` checks the
plan key is complete (a served plan is the plan a fresh planner builds).
``Evaluator.evaluate(key) == reference_cost(key)``, bit for bit, is the
one purity contract the suites and figure scripts pin.

``unfused_lower`` is the emission ``lower`` instantiates from plans, done
the long way: every op's plan executed in place, each reconcile chain
emitted unfused (``unfused_reconcile``) into the function's own builder.
``reference_fuse`` is Section 6's fusion over a whole device-local
function: each round fuses every producer/consumer pair it finds (they
are disjoint), to a fixed point.
``reference_fuse(unfused_lower(f, env))`` must be ``lower(f, env)`` op for
op (``tests/test_lower_templates.py``), and ``reference_chain`` is the
same statement for one chain (``tests/test_reconcile_chains.py``).

``reference_index`` is the structural order everything is addressed by
(``Function.index``'s ops and values), written out independently.
``full_sweep`` is propagation's reference: a fixed point seeded from
*every* value, the whole-function sweep the library does not run.
``RevisitingPropagator`` is the kernel's schedule before the settled rule:
after every visit that writes, the visited op is re-enqueued too, so the
kernel must reach its state and event list in no more visits.
``ESTIMATE_FIELDS`` / ``assert_estimates_identical`` are the one statement
of what "bit for bit" means for two ``CostEstimate`` objects.
``reference_peak_bytes`` is the live-range peak by its definition, one
scan of every live tensor after every record — what
``LiveRangeLog.peak_bytes``'s interval sums must equal, since the
materializing estimate and the search's fold both go through it.

``FAMILIES`` is the suite's one table of small model programs (each
family's unit-test config, mesh and manual schedule) and ``traced`` their
one trace per session.  A test that edits a function or drops its
``_derived`` memo, or that counts cold builds, traces its own copy with
``FAMILIES[name].build()``.
"""

import functools
import heapq
from typing import Callable, NamedTuple

from repro.api import ManualPartition
from repro.auto.tree import canonical_key
from repro.core.actions import try_apply_action
from repro.core.propagate import Propagator, propagate
from repro.core.sharding import ShardingEnv
from repro.ir import opdefs
from repro.ir.function import FunctionBuilder
from repro.ir.values import canonical_attr
from repro.mesh import Mesh
from repro.models import bottleneck, gns, transformer, unet
from repro.models import pipeline as pm
from repro.models import schedules as sched
from repro.sim import costmodel
from repro.spmd import lower
from repro.spmd.lower import LoweredModule, Lowerer

MESH = Mesh({"batch": 4, "model": 2})
PIPE_MESH = Mesh({"stage": 2, "model": 2})
IT32 = transformer.it32(num_layers=2, d_model=16, num_heads=4, d_head=4,
                        ffw_dim=32, vocab=32, batch=8, decode_steps=4)


class Family(NamedTuple):
    """``build()`` traces the program; ``schedule()`` is a fresh list of
    its manual tactics for ``mesh``."""
    build: Callable
    mesh: Mesh
    schedule: Callable


def _pipe_mp():
    return [sched.pp("stage"),
            ManualPartition({"up_w": 1, "down_w": 0}, axis="model")]


FAMILIES = {
    "transformer.tiny": Family(
        lambda: transformer.trace_training_step(transformer.tiny()), MESH,
        lambda: [sched.bp({"tokens": 0, "targets": 0}), sched.megatron_mp(),
                 sched.zero3(), sched.emb()]),
    "it32.tiny": Family(
        lambda: transformer.trace_inference(IT32), MESH,
        lambda: sched.transformer_schedules(IT32, training=False)["BP+MP"]),
    "unet.tiny": Family(
        lambda: unet.trace_training_step(unet.tiny()), MESH,
        lambda: [sched.bp({"image": 0, "timestep": 0, "noise": 0}),
                 unet.megatron_mp(), sched.zero3(all_tensors=True)]),
    "gns.tiny": Family(
        lambda: gns.trace_training_step(gns.tiny()), MESH,
        lambda: [sched.edge_sharding(), sched.zero3(all_tensors=True),
                 ManualPartition({"nodes": 1}, axis="model")]),
    "pm.tiny": Family(
        lambda: pm.trace_pipeline_transformer(pm.tiny()), PIPE_MESH,
        _pipe_mp),
    "moe.8": Family(
        lambda: pm.trace_pipeline_moe(pm.tiny(batch=16, num_experts=8)),
        PIPE_MESH,
        lambda: _pipe_mp() + [ManualPartition(
            {"expert_up_w": 0, "expert_down_w": 0}, axis="model")]),
    "bottleneck.ensemble": Family(
        lambda: bottleneck.trace_training_step(bottleneck.ensemble()), MESH,
        lambda: [ManualPartition({"w1": 1, "w2": 0}, axis="model"),
                 sched.zero3(all_tensors=True)]),
}


@functools.lru_cache(maxsize=None)
def traced(family):
    """``FAMILIES[family]``'s program, traced once per session; callers
    read it and may fill its memo, never edit it or drop the memo."""
    return FAMILIES[family].build()


#: Every field of a ``CostEstimate``; equality is exact on each.
ESTIMATE_FIELDS = ("runtime_s", "compute_s", "comm_s", "local_flops",
                   "comm_bytes", "peak_memory_bytes", "collective_time_s")


def assert_estimates_identical(got, want, context=None):
    """``got == want`` on every estimate field, naming the first that
    differs (and the caller's ``context``, e.g. a chain step)."""
    for field in ESTIMATE_FIELDS:
        assert getattr(got, field) == getattr(want, field), (context, field)


def _sizes(mesh, axes):
    return {a: mesh.size(a) for a in axes}


def unfused_reconcile(builder, value, actual, required, allowed_pending,
                      mesh):
    """Emit, unfused, the collectives converting ``value`` (laid out per
    ``actual``) to the ``required`` per-dim layout and return the converted
    value: ``all_reduce`` the pending sums not in ``allowed_pending``,
    then per dim keep the longest common prefix of the two layouts,
    ``all_gather`` the rest of the actual one and ``all_slice`` in the
    rest of the required one."""
    rank = actual.rank
    ar_axes = tuple(a for a in sorted(actual.sum_axes)
                    if a not in allowed_pending)
    if ar_axes:
        value = builder.emit1("all_reduce", [value], {
            "axes": ar_axes, "kind": "add", "sizes": _sizes(mesh, ar_axes)})
    gather_dims, slice_dims, new_dims = [], [], []
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
    dim_axes = actual.dim_axes
    if any(gather_dims):
        mid_dims = tuple(
            tuple(dim_axes[d][:len(dim_axes[d]) - len(gather_dims[d])])
            for d in range(rank))
        value = builder.emit1("all_gather", [value], {
            "dims": tuple(gather_dims),
            "sizes": _sizes(mesh, [a for g in gather_dims for a in g]),
            "operand_dims": dim_axes,
            "result_dims": mid_dims,
        })
        dim_axes = mid_dims
    if any(slice_dims):
        value = builder.emit1("all_slice", [value], {
            "dims": tuple(slice_dims),
            "sizes": _sizes(mesh, [a for s in slice_dims for a in s]),
            "operand_dims": dim_axes,
            "result_dims": tuple(new_dims),
        })
    return value


class _UnfusedLowerer(Lowerer):
    """A lowerer that emits every op per its plan and every reconcile
    chain by :func:`unfused_reconcile`, straight into the function's
    builder: no recorded chain steps, no fusion."""

    def _lower_op(self, op, builder, value_map):
        if op.opcode in opdefs.LOOP_OPS or (
                op.opcode == "tag" and self._tag_transparent(op)):
            super()._lower_op(op, builder, value_map)
        else:
            self._execute_plan(op, self._plan_op(op), builder, value_map)

    def _reconciled(self, builder, value, actual, required,
                    allowed_pending):
        reduced = tuple(a for a in sorted(actual.sum_axes)
                        if a not in allowed_pending)
        key = None
        if reduced:
            key = (id(builder), value.uid, reduced, tuple(
                tuple(required.get(d, [])) for d in range(actual.rank)))
            if key in self._reduce_cache:
                return self._reduce_cache[key]
        value = unfused_reconcile(builder, value, actual, required,
                                  allowed_pending, self.mesh)
        if key is not None:
            self._reduce_cache[key] = value
        return value

    def _execute_plan(self, op, plan, builder, value_map):
        """Reconcile operands, emit the op, slice unexplained result axes
        back in, and bind the result values."""
        new_operands = [
            self._reconciled(builder, value_map[operand],
                             plan.operand_shardings[i], plan.required[i],
                             plan.allowed_pending[i])
            for i, operand in enumerate(op.operands)
        ]
        # A plan holds no identity labels (a tag's name): the op's own.
        attrs = {**plan.attrs, **{key: v for key, v in op.attrs.items()
                                  if key not in plan.attrs}}
        new_results = builder.emit(op.opcode, new_operands, attrs).results
        for r, result in enumerate(op.results):
            new_value = new_results[r]
            assert new_value.type == plan.result_types[r], op
            if plan.trailing[r] is not None:
                new_value = builder.emit1("all_slice", [new_value],
                                          plan.trailing[r][0])
            new_value.name = result.name
            value_map[result] = new_value


def unfused_lower(function, env):
    """``lower(function, env)`` emitted op by op and left unfused."""
    local = _UnfusedLowerer(env, function).lower_function(
        function, function.name + "_spmd")
    outputs = [env.sharding(r) for r in function.results]
    return LoweredModule(local, env.mesh,
                         [env.sharding(p) for p in function.params],
                         [s.without_sum(s.sum_axes) for s in outputs])


def fusable_pairs(function):
    """``{producer: all_slice}`` for every pair Section 6 fuses: the
    producer's result is used once, by the slice, and is an
    ``all_reduce`` over a superset of the slice axes, or an
    ``all_gather`` the slice cancels or turns into an axis move.  A
    producer is never an ``all_slice``, so the pairs are disjoint."""
    uses = {}
    for value in [o for op in function.ops for o in op.operands] + list(
            function.results):
        uses[value] = uses.get(value, 0) + 1
    pairs = {}
    for op in function.ops:
        producer = op.operands[0].producer if op.operands else None
        if (op.opcode != "all_slice" or producer is None
                or uses[producer.results[0]] != 1):
            continue
        slice_axes = {a for axes in op.attrs["dims"] for a in axes}
        if producer.opcode == "all_reduce" and slice_axes and (
                slice_axes <= set(producer.attrs["axes"])):
            pairs[producer] = op
        elif producer.opcode == "all_gather" and (
                producer.attrs["dims"] == op.attrs["dims"]
                or _axis_move(producer.attrs["dims"], op.attrs["dims"])):
            pairs[producer] = op
    return pairs


def _axis_move(gather_dims, slice_dims):
    """``{gather_dim, slice_dim, axes}`` when the same axes are gathered
    on one dim and sliced on another, else ``None``."""
    gathered = [d for d, axes in enumerate(gather_dims) if axes]
    sliced = [d for d, axes in enumerate(slice_dims) if axes]
    if (len(gathered) != 1 or len(sliced) != 1 or gathered == sliced
            or gather_dims[gathered[0]] != slice_dims[sliced[0]]):
        return None
    return {"gather_dim": gathered[0], "slice_dim": sliced[0],
            "axes": gather_dims[gathered[0]]}


def _emit_fused(builder, producer, consumer, value):
    """What ``consumer(producer(value))`` fuses to, emitted on ``value``."""
    sizes = producer.attrs["sizes"]
    if producer.opcode == "all_reduce":
        slice_axes = {a for axes in consumer.attrs["dims"] for a in axes}
        residual = tuple(a for a in producer.attrs["axes"]
                         if a not in slice_axes)
        if residual:
            value = builder.emit1("all_reduce", [value], {
                "axes": residual, "kind": producer.attrs["kind"],
                "sizes": {a: sizes[a] for a in residual}})
        return builder.emit1("reduce_scatter", [value], {
            **consumer.attrs, "kind": producer.attrs["kind"]})
    move = _axis_move(producer.attrs["dims"], consumer.attrs["dims"])
    if move is None:  # the slice undoes the gather
        return value
    return builder.emit1("all_to_all", [value], {
        **move, "sizes": {a: sizes[a] for a in move["axes"]},
        "operand_dims": producer.attrs["operand_dims"],
        "result_dims": consumer.attrs["result_dims"]})


def reference_fuse(function):
    """Section 6's fusions over a device-local ``function`` to a fixed
    point (regions first, replaced in place).  Each round rebuilds the
    function once with every :func:`fusable_pairs` producer dropped and
    its slice replaced by the fused collectives; the pairs are disjoint,
    so that is fusing them one at a time."""
    for op in function.ops:
        op.regions = [reference_fuse(region) for region in op.regions]
    while pairs := fusable_pairs(function):
        fused = {consumer: producer for producer, consumer in pairs.items()}
        builder = FunctionBuilder(function.name)
        subst = {p: builder.function.add_param(p.type, name=p.name)
                 for p in function.params}
        builder.function.input_names = list(function.input_names)
        for op in function.ops:
            if op in pairs:
                continue
            if op in fused:
                producer = fused[op]
                subst[op.results[0]] = _emit_fused(
                    builder, producer, op,
                    subst.get(producer.operands[0], producer.operands[0]))
                continue
            emitted = builder.emit(
                op.opcode, [subst.get(o, o) for o in op.operands],
                dict(op.attrs), op.regions or None)
            for old, new in zip(op.results, emitted.results):
                new.name = old.name
                subst[old] = new
        function = builder.ret(*[subst.get(r, r) for r in function.results],
                               names=function.output_names)
    return function


def reference_chain(mesh, local_type, actual, required, allowed_pending):
    """The fused steps of one reconcile chain, the long way: emitted
    unfused into a function of its own, then :func:`reference_fuse`-d."""
    builder = FunctionBuilder("chain")
    value = unfused_reconcile(builder, builder.function.add_param(local_type),
                              actual, required, allowed_pending, mesh)
    fused = reference_fuse(builder.ret(value))
    return tuple((op.opcode, op.attrs, op.results[0].type)
                 for op in fused.ops)


def listing(function):
    """A lowered function, op for op, with values numbered by definition:
    ``(opcode, canonical attrs, operand numbers, result types and names,
    regions)`` per op, so two lowerings compare with ``==``."""
    number = {}

    def define(value):
        number[value] = len(number)

    def walk(fn):
        for param in fn.params:
            define(param)
        rows = []
        for op in fn.ops:
            rows.append((
                op.opcode,
                canonical_attr(op.attrs),
                [number[v] for v in op.operands],
                [(r.type, r.name) for r in op.results],
                [walk(region) for region in op.regions],
            ))
            for result in op.results:
                define(result)
        return (rows, [number[r] for r in fn.results])

    return walk(function)


def reference_index(function):
    """``(ops, values)`` of ``function``: every op in pre-order, regions
    included, and every value it defines -- params, then each op's results
    followed by its regions' values, recursively.  Value indices in
    ``portable_state``, probe digests and the golden pins are positions in
    this list."""
    ops, values = [], []

    def visit(fn):
        values.extend(fn.params)
        for op in fn.ops:
            ops.append(op)
            values.extend(op.results)
            for region in op.regions:
                visit(region)

    visit(function)
    return ops, values


def full_sweep(function, env):
    """Propagate with every value of ``function`` marked dirty, so every
    op is visited in the first round: the whole-function sweep that
    dirty-seeded propagation must agree with."""
    env._dirty.update(reference_index(function)[1])
    propagate(function, env)


def apply_with_full_sweep(tactic, function, env):
    """``tactic.apply`` with its trailing propagation replaced by a
    :func:`full_sweep`."""
    applied = tactic.issue_actions(function, env)
    full_sweep(function, env)
    return applied


class RevisitingSchedule:
    """Mixin: a propagator's worklist without the settled rule.  Any op
    adjacent to a value a visit wrote -- the visited op included -- is
    re-enqueued: a later one joins the round, an earlier-or-equal one
    waits for the next.  Every visit is decided afresh (:meth:`_visit`):
    the schedule never reads the kernel's visit memo.  Mix it in front of
    a propagator class (``revisiting(cls)``) to keep that class's
    transfer function and conflict policy."""

    def _fixed_point(self, seeds, max_rounds):
        adjacency = self._index.adjacency
        env = self.env
        current = sorted(seeds)
        next_round = set()
        for _ in range(max_rounds):
            if not current:
                if not next_round:
                    return
                current = sorted(next_round)
                next_round = set()
            env.stats.rounds += 1
            queued = set(current)
            while current:
                i = heapq.heappop(current)
                env.stats.ops_processed += 1
                before = env.write_serial
                self._visit(i)
                if env.write_serial == before:
                    continue
                for value in env.drain_dirty():
                    for j in adjacency.get(value, ()):
                        if j <= i:
                            next_round.add(j)
                        elif j not in queued:
                            queued.add(j)
                            heapq.heappush(current, j)
        if current or next_round:
            raise RuntimeError("propagation did not converge")

    def _visit(self, i):
        """Visit the op at walk index ``i``: a loop op through
        ``_process_loop``, any other by a fresh decision applied through
        the kernel's one write path."""
        index = self._index
        op = index.ops[i]
        head = index.heads[i]
        if head is None:
            self._process_loop(op)
            return
        values = index.values[i]
        key = (head, *map(self.env._shardings.get, values))
        self._replay(op, values, self._decide(
            op, index.classes[i], index.aliases[i], key))


def revisiting(propagator_class):
    """``propagator_class`` on the :class:`RevisitingSchedule`."""
    return type("Revisiting" + propagator_class.__name__,
                (RevisitingSchedule, propagator_class), {})


RevisitingPropagator = revisiting(Propagator)


def reference_env(function, mesh, actions):
    """A fresh env with ``actions`` applied in canonical order, one
    propagation fixed point per action."""
    env = ShardingEnv(mesh)
    for action in canonical_key(actions):
        try_apply_action(function, env, action)
        propagate(function, env)
    return env


def reference_peak_bytes(log, result_uids):
    """Peak live bytes of a ``LiveRangeLog``, by the definition: after
    each record's allocations, sum every live tensor, then free each
    tensor whose alias class has no use past this record.  A tensor is
    a class root; an aliasing record's result and an entry of the log's
    alias table join their operand's (target's) class.  Outputs never
    die, a record-defined tensor nothing uses dies with its def and an
    unused parameter lives throughout."""
    alias_of = dict(log._aliases)
    for operands, results, alias, _ in log._ops:
        if alias:
            alias_of[results[0][0]] = operands[0]

    def root(uid):
        while uid in alias_of:
            uid = alias_of[uid]
        return uid

    last = {}
    for index, (operands, _, _, _) in enumerate(log._ops):
        for uid in operands:
            last[root(uid)] = index
    outputs = {root(uid) for uid in result_uids}
    params = {uid for uid, _ in log._params}
    live = dict(log._params)
    peak = sum(live.values())
    for index, (_, results, alias, extra) in enumerate(log._ops):
        if not alias:
            live.update(results)
        peak = max(peak, sum(live.values()) + extra)
        for uid in list(live):
            end = last.get(uid)
            if uid in outputs or (end is None and uid in params):
                continue
            if end is None or end <= index:
                del live[uid]
    return peak


def reference_estimate(function, env, device, memo=None):
    """The materializing ``lower -> estimate``.

    The estimate is a pure function of the env's shardings, so a caller
    walking one function through checkpoint/rollback chains may pass a
    dict as ``memo``: a revisited env state (every rollback lands on one)
    reuses its estimate instead of re-lowering the whole function."""
    memo = {} if memo is None else memo
    key = env.portable_state(function)
    if key not in memo:
        memo[key] = costmodel.estimate(lower(function, env), device)
    return memo[key]


def reference_cost(function, mesh, actions, device, memo=None):
    """The search objective of ``actions``, priced from scratch (``memo``
    as for :func:`reference_estimate`)."""
    env = reference_env(function, mesh, actions)
    return costmodel.search_objective(
        reference_estimate(function, env, device, memo), device)
