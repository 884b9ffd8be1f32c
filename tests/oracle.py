"""The references the library's fast paths are checked against.

``reference_cost`` prices a canonical action set from scratch through the
materializing pipeline — fresh env, one ``propagate`` per action,
``lower``, ``fuse_collectives``, ``costmodel.estimate`` — sharing
nothing with ``Evaluator`` beyond the action vocabulary, propagation and
the function's lowering-plan and chain tables.  ``tests/test_plan_table.py``
checks the plan key is complete (a served plan is the plan a fresh
planner builds); ``tests/test_lower_templates.py`` checks the fused
chains against ``unfused_lower``, which reads no chain table.
``Evaluator.evaluate(key) == reference_cost(key)``, bit for bit, is the
one purity contract the suites and figure scripts pin.

``unfused_lower`` is the emission ``lower`` instantiates from templates,
done the long way: every op's plan executed in place, each reconcile
chain emitted unfused into the function's own builder; ``fuse_collectives``
over it must give ``lower``'s program op for op.

``reference_index`` is the structural order everything is addressed by
(``Function.index``'s ops and values), written out independently.
``full_sweep`` is propagation's reference: a fixed point seeded from
*every* value, the whole-function sweep the library does not run.
``ESTIMATE_FIELDS`` / ``assert_estimates_identical`` are the one statement
of what "bit for bit" means for two ``CostEstimate`` objects.
"""

from repro.auto.evaluator import try_apply_action
from repro.auto.tree import canonical_key
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.errors import LoweringError
from repro.ir import opdefs
from repro.ir.values import canonical_attr
from repro.sim import costmodel
from repro.spmd import fuse_collectives, lower
from repro.spmd.lower import LoweredModule, Lowerer


#: Every field of a ``CostEstimate``; equality is exact on each.
ESTIMATE_FIELDS = ("runtime_s", "compute_s", "comm_s", "local_flops",
                   "comm_bytes", "peak_memory_bytes", "collective_time_s")


def assert_estimates_identical(got, want, context=None):
    """``got == want`` on every estimate field, naming the first that
    differs (and the caller's ``context``, e.g. a chain step)."""
    for field in ESTIMATE_FIELDS:
        assert getattr(got, field) == getattr(want, field), (context, field)


class _UnfusedLowerer(Lowerer):
    """A lowerer that emits every op per its plan and every reconcile
    chain by ``Lowerer._reconcile``, straight into the function's
    builder: no templates, no chain table, no fusion."""

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
        value = self._reconcile(builder, value, actual, required,
                                allowed_pending)
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
        new_results = builder.emit(op.opcode, new_operands,
                                   plan.attrs).results
        for r, result in enumerate(op.results):
            new_value = new_results[r]
            if new_value.type.shape != plan.expected_shapes[r]:
                raise LoweringError(
                    f"lowering {op.opcode}: local result shape "
                    f"{new_value.type.shape} != expected "
                    f"{plan.expected_shapes[r]}")
            if plan.trailing[r] is not None:
                new_value = builder.emit1("all_slice", [new_value],
                                          plan.trailing[r])
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


def reference_env(function, mesh, actions):
    """A fresh env with ``actions`` applied in canonical order, one
    propagation fixed point per action."""
    env = ShardingEnv(mesh)
    for action in canonical_key(actions):
        try_apply_action(function, env, action)
        propagate(function, env)
    return env


def reference_estimate(function, env, device, memo=None):
    """The materializing ``lower -> fuse_collectives -> estimate``.

    The estimate is a pure function of the env's shardings, so a caller
    walking one function through checkpoint/rollback chains may pass a
    dict as ``memo``: a revisited env state (every rollback lands on one)
    reuses its estimate instead of re-lowering the whole function."""
    memo = {} if memo is None else memo
    key = env.portable_state(function)
    if key not in memo:
        lowered = lower(function, env)
        lowered.function = fuse_collectives(lowered.function)
        memo[key] = costmodel.estimate(lowered, device)
    return memo[key]


def reference_cost(function, mesh, actions, device, memo=None):
    """The search objective of ``actions``, priced from scratch (``memo``
    as for :func:`reference_estimate`)."""
    env = reference_env(function, mesh, actions)
    return costmodel.search_objective(
        reference_estimate(function, env, device, memo), device)
