"""The plan table's key is complete: sharing plans cannot change a lowering.

``spmd/lower.py`` keeps one lowering-plan table per (function, mesh),
keyed ``(op class, operand sharding iids, result sharding iids)``, and
every lowerer built for the function reads and fills it: each ``lower()``
and the search's estimator.  The materializing reference
(``tests/oracle.py``) therefore shares plans with the fast path.  What
keeps it an independent reference is that a plan served from the table is
the plan a fresh planner builds.  On every model family in tier-1, under
two schedules each, this module checks that:

* every plan served from a warm table equals a freshly built one, field
  for field (layouts, chains, attrs, types, trailing slices, FLOPs);
* ``lower()`` under schedule B, after a ``lower()`` under schedule A on
  the same function, matches a cold ``lower()`` under B op for op, and
  so does a second ``lower()`` under B, served wholly from warm plans
  without building one;
* a function lowered under two meshes gets each mesh's own plans.

It also pins what makes shared plans hard to corrupt (frozen plans; the
table and op classes never ride a pickle), that L identical layers are
planned once, that their tags share a plan yet keep their own names, that
``x * x`` shares ``x * y``'s class, plan and pricing template, and that a
manual-only ``partir_jit`` imports nothing from ``repro.auto``.
"""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from repro import ShapeDtype, trace
from repro.api import ManualPartition
from repro.core import tile
from repro.core.opclass import op_class
from repro.core.sharding import ShardingEnv
from repro.ir import dtypes, opdefs
from repro.ir.values import canonical_attr
from repro.mesh import Mesh
from repro.models import transformer
from repro.models import schedules as sched
from repro.sim import TPU_V3, costmodel
from repro.spmd.lower import Lowerer, lower, plan_table
from repro.trace import ops

from oracle import (FAMILIES, IT32, MESH, PIPE_MESH,
                    assert_estimates_identical, listing,
                    reference_estimate, traced)

#: Same axis names, other sizes: a plan keyed on the names alone would
#: carry the first mesh's local shapes and collective group sizes.
OTHER_MESH = {MESH: Mesh({"batch": 2, "model": 4}),
              PIPE_MESH: Mesh({"stage": 2, "model": 1})}

#: case -> (``oracle.FAMILIES`` program, schedule A); schedule B is the
#: program's own schedule, and A a prefix of it.
CASES = {
    "transformer": ("transformer.tiny",
                    lambda: [sched.bp({"tokens": 0, "targets": 0})]),
    "it32_scan": ("it32.tiny", lambda: sched.transformer_schedules(
        IT32, training=False)["BP"]),
    "unet": ("unet.tiny",
             lambda: [sched.bp({"image": 0, "timestep": 0, "noise": 0})]),
    "gns": ("gns.tiny", lambda: [sched.edge_sharding()]),
    "pipeline": ("pm.tiny", lambda: [sched.pp("stage")]),
    "moe": ("moe.8", lambda: [sched.pp("stage")]),
    "bottleneck": ("bottleneck.ensemble", lambda: [ManualPartition(
        {"w1": 1, "w2": 0}, axis="model")]),
}


def _family(family):
    """``(program, mesh, schedule A, schedule B)``; the program is a fresh
    trace, since these tests drop its plans to lower cold."""
    name, schedule_a = CASES[family]
    spec = FAMILIES[name]
    return spec.build().function, spec.mesh, schedule_a, spec.schedule


def _env(function, mesh, schedule):
    env = ShardingEnv(mesh)
    for tactic in schedule():
        tactic.apply(function, env)
    return env


def _forget_plans(function):
    """Make the next lowering of ``function`` cold."""
    function.__dict__.pop("_derived", None)


def _rendered(plan):
    """A plan's fields, comparable with ``==`` (chains are shared by
    identity, so a fresh planner's compare by their steps)."""
    def steps(chain):
        return None if chain is None else (
            chain.source, chain.reduced, chain.required,
            [(opcode, canonical_attr(attrs), type)
             for opcode, attrs, type in chain.steps])

    return (plan.operand_shardings, plan.required, plan.allowed_pending,
            [steps(chain) for chain in plan.chains],
            canonical_attr(plan.attrs), plan.result_types,
            [None if t is None else (canonical_attr(t[0]), t[1])
             for t in plan.trailing], plan.flops)


def _planned_ops(function, env):
    """The ops a lowering of ``function`` under ``env`` plans: not loops
    (``_plan_loop``), not transparent tag markers (dropped)."""
    for op in function.walk():
        if op.opcode in opdefs.LOOP_OPS:
            continue
        if (op.opcode == "tag" and env.sharding(op.operands[0])
                is env.sharding(op.results[0])):
            continue
        yield op


@pytest.mark.parametrize("family", sorted(CASES))
def test_warm_table_serves_fresh_plans_and_lowers_as_cold(family):
    function, mesh, schedule_a, schedule_b = _family(family)
    env_a = _env(function, mesh, schedule_a)
    env_b = _env(function, mesh, schedule_b)
    lower(function, env_a)
    warm = lower(function, env_b)

    # Every plan the B lowering used is in its table and equals a fresh
    # build; serving them all builds nothing.
    served = Lowerer(env_b, function)
    fresh = Lowerer(env_b)
    sizes = [len(served._plans), len(served._chains)]
    count = 0
    for op in _planned_ops(function, env_b):
        assert (_rendered(served._plan_op(op))
                == _rendered(fresh._build_op_plan(op))), op
        count += 1
    assert [len(served._plans), len(served._chains)] == sizes
    assert sizes[0] < count  # the table shares plans between ops

    again = lower(function, env_b)
    assert listing(again.function) == listing(warm.function)
    assert [len(served._plans), len(served._chains)] == sizes

    _forget_plans(function)
    cold = lower(function, env_b)
    assert listing(warm.function) == listing(cold.function)
    assert warm.input_shardings == cold.input_shardings
    assert warm.output_shardings == cold.output_shardings


@pytest.mark.parametrize("family", sorted(CASES))
def test_each_mesh_gets_its_own_plans(family):
    function, mesh, _, schedule_b = _family(family)
    other = OTHER_MESH[mesh]
    lower(function, _env(function, mesh, schedule_b))
    env = _env(function, other, schedule_b)
    warm = lower(function, env)
    assert plan_table(function, mesh) is not plan_table(function, other)
    _forget_plans(function)
    cold = lower(function, env)
    assert listing(warm.function) == listing(cold.function)


def test_key_separates_scatter_add_rules():
    """``scatter_add``'s rule reads its operand's producer (scattering
    into zeros makes the edge dim contracting), so two scatters alike in
    opcode, attrs and types, under equal adjacent shardings, still plan
    differently."""
    edges = 16

    def segment_sums(base, index, updates):
        return (ops.scatter_add(ops.zeros((8, 4)), index, updates),
                ops.scatter_add(base, index, updates))

    function = trace(segment_sums, ShapeDtype((8, 4)),
                     ShapeDtype((edges,), dtypes.i32),
                     ShapeDtype((edges, 4))).function
    env = ShardingEnv(MESH)
    ManualPartition({"1": 0, "2": 0}, axis="batch").apply(function, env)
    zeros_scatter, scatter = [op for op in function.ops
                              if op.opcode == "scatter_add"]
    # Give the second scatter the first one's adjacent shardings.
    for mine, theirs in zip(scatter.operands[1:] + scatter.results,
                            zeros_scatter.operands[1:]
                            + zeros_scatter.results):
        env.set_sharding(mine, env.sharding(theirs))
    lowerer = Lowerer(env, function)
    fresh = Lowerer(env)
    plans = [_rendered(lowerer._plan_op(op))
             for op in (zeros_scatter, scatter)]
    assert plans[0] != plans[1]
    assert plans == [_rendered(fresh._build_op_plan(op))
                     for op in (zeros_scatter, scatter)]


def test_identical_layers_are_planned_once():
    """The table's size does not grow with the number of identical
    layers: a layer is planned once and instantiated everywhere."""
    sizes = []
    for layers in (1, 3):
        cfg = transformer.tiny(num_layers=layers)
        function = transformer.trace_training_step(cfg).function
        env = _env(function, MESH, lambda: sched.transformer_schedules(
            cfg, True)["BP+MP+Z3"])
        lower(function, env)
        sizes.append(len(plan_table(function, MESH)))
    assert sizes[0] == sizes[1]


def test_identical_layers_tags_share_a_class_and_a_plan():
    """A tag's name is a label, not structure: two identical layers'
    tags share one op class and, tiled so that they are not transparent,
    one plan-table entry; each emitted tag keeps its own name."""
    square = ShapeDtype((8, 8))

    def layers(x, w1, w2):
        h = ops.tag(ops.tanh(x @ w1), "layer1")
        return ops.tag(ops.tanh(h @ w2), "layer2")

    function = trace(layers, square, square, square,
                     tag_points=False).function
    tags = [op for op in function.ops if op.opcode == "tag"]
    assert op_class(tags[0]) is op_class(tags[1])
    env = ShardingEnv(MESH)
    for tag in tags:  # operand tiled on dim 1, result on dim 0
        tile(env, tag.operands[0], 1, "batch")
        tile(env, tag.results[0], 0, "batch")
    lowered = lower(function, env)
    assert sum(key[0] is op_class(tags[0])
               for key in plan_table(function, MESH)) == 1
    emitted = [op for op in lowered.function.ops if op.opcode == "tag"]
    assert [op.attrs for op in emitted] == [tag.attrs for tag in tags] \
        == [{"name": "layer1"}, {"name": "layer2"}]
    _forget_plans(function)
    assert listing(lower(function, env).function) \
        == listing(lowered.function)


def test_a_repeated_operand_shares_the_class_plan_and_template():
    """Which positions hold the same value is not structure: ``x * x``
    beside ``x * y`` at one type, under equal adjacent shardings, share
    one op class, one plan-table entry and one pricing template, and the
    shared plan lowers and prices both as a cold lowering does."""
    square = ShapeDtype((8, 8))
    function = trace(lambda x, y: (x * x, x * y), square, square,
                     tag_points=False).function
    env = ShardingEnv(MESH)
    for value in function.params:  # operands tiled on dim 0 ...
        tile(env, value, 0, "batch")
    for op in function.ops:  # ... results on dim 1: operands reconcile
        tile(env, op.results[0], 1, "batch")
    twice, once = function.ops
    assert op_class(twice) is op_class(once)
    lowered = lower(function, env)
    (plan,) = plan_table(function, MESH).values()
    fresh = Lowerer(env)
    for op in (twice, once):
        assert _rendered(fresh._build_op_plan(op)) == _rendered(plan)
    estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    assert_estimates_identical(estimator.estimate_incremental(env),
                               reference_estimate(function, env, TPU_V3))
    assert estimator.ops_planned == 1
    _forget_plans(function)
    assert listing(lower(function, env).function) \
        == listing(lowered.function)


def test_plans_are_frozen():
    function = traced("transformer.tiny").function
    env = _env(function, MESH, FAMILIES["transformer.tiny"].schedule)
    op = next(_planned_ops(function, env))
    plan = Lowerer(env, function)._plan_op(op)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.attrs = {}


def test_pickle_carries_no_plan_table_or_op_classes():
    function, mesh, _, schedule_b = _family("it32_scan")
    lowered = lower(function, _env(function, mesh, schedule_b))
    assert plan_table(function, mesh)
    assert any(op._op_class is not None for op in function.walk())

    clone = pickle.loads(pickle.dumps(function))
    assert "_derived" not in clone.__dict__
    assert all(op._op_class is None for op in clone.walk())
    relowered = lower(clone, _env(clone, mesh, schedule_b))
    assert listing(relowered.function) == listing(lowered.function)


def test_unpickled_function_plans_and_lowers_as_the_original():
    """A function that rode a pickle (to a rollout worker or a plan
    server) plans like the original: its dtypes load as the module's
    instances, which type inference compares by identity (a ``select``
    predicate must be ``dtypes.bool_``)."""
    spec = ShapeDtype((8, 4))
    traced = trace(ops.select, ShapeDtype((8, 4), dtypes.bool_), spec, spec)
    lowered = []
    for function in (traced.function,
                     pickle.loads(pickle.dumps(traced.function))):
        env = ShardingEnv(MESH)
        ManualPartition({"0": 0, "1": 0, "2": 0}, axis="batch").apply(
            function, env)
        lowered.append(listing(lower(function, env).function))
    assert lowered[0] == lowered[1]


def test_manual_partir_jit_imports_nothing_from_repro_auto():
    """The IR, core, spmd and sim layers stand without ``repro.auto``:
    a manual-only process never loads it."""
    script = (
        "import sys\n"
        "from repro import Mesh, partir_jit\n"
        "from repro.models import schedules, transformer\n"
        "cfg = transformer.tiny()\n"
        "traced = transformer.trace_training_step(cfg)\n"
        "partir_jit(traced, Mesh({'batch': 4, 'model': 2}),\n"
        "           schedules.transformer_schedules(cfg)['BP+MP+Z3'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.auto')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout
