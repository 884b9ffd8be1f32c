"""The references the library's fast paths are checked against.

``reference_cost`` prices a canonical action set from scratch through the
materializing pipeline — fresh env, one ``propagate`` per action,
``lower``, ``fuse_collectives``, ``costmodel.estimate`` — sharing
nothing with ``Evaluator`` beyond the action vocabulary, propagation and
the function's lowering-plan table, whose key ``tests/test_plan_table.py``
checks is complete (a served plan is the plan a fresh planner builds).
``Evaluator.evaluate(key) == reference_cost(key)``, bit for bit, is the
one purity contract the suites and figure scripts pin.

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
from repro.sim import costmodel
from repro.spmd import fuse_collectives, lower


#: Every field of a ``CostEstimate``; equality is exact on each.
ESTIMATE_FIELDS = ("runtime_s", "compute_s", "comm_s", "local_flops",
                   "comm_bytes", "peak_memory_bytes", "collective_time_s")


def assert_estimates_identical(got, want, context=None):
    """``got == want`` on every estimate field, naming the first that
    differs (and the caller's ``context``, e.g. a chain step)."""
    for field in ESTIMATE_FIELDS:
        assert getattr(got, field) == getattr(want, field), (context, field)


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
