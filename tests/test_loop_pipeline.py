"""First-class loops + pipeline tactic: the multi-stage scenario suite.

Pins the loop/pipeline tentpole end to end:

* **Loop-carry propagation** reaches the documented fixed point: a tiled
  init carry shards the body params, body results, and loop results alike
  (and a ``while_loop``'s cond region sees the sharded carries but returns
  a replicated predicate).
* **Canonical walk order**: :func:`repro.core.loopview.render_loop_view`
  emits ops in exactly :meth:`~repro.ir.function.Function.walk` pre-order —
  the order :func:`~repro.ir.tagpoints.tag_points` numbers — including
  inside loop bodies, so tag indices stay portable across loop promotion.
* **Pipeline legality and application**: the ``PIPELINE`` action's legality
  predicate, wire encoding, and effect on the sharding env.
* **Golden collective counts** for the pipelined transformer and MoE
  models under bp / megatron / pipeline-hybrid schedules.
* **Cross-backend pins**: fixed-seed automatic search over a pipelined
  model returns identical best actions and cost on serial, batched and
  process backends, and on undo vs fork rollout envs.
* **Execution equivalence**: the partitioned pipelined program equals the
  unpartitioned reference, numerically.
"""

import re

import numpy as np
import pytest

from oracle import (assert_estimates_identical, reference_cost,
                    reference_env, reference_estimate)
from repro.api import UNKNOWN, AutomaticPartition, ManualPartition, \
    PipelinePartition, partir_jit
from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.search import mcts_search
from repro.core import propagate, tile
from repro.core.actions import PIPELINE, try_apply_action
from repro.core.loopview import render_loop_view
from repro.core.pipeline import (
    SCHEDULES,
    apply_pipeline,
    loop_ops,
    pipeline_legal,
)
from repro.core.sharding import ShardingEnv
from repro.errors import ExecutionError, ShardingError
from repro.ir import evaluate_function
from repro.ir.tagpoints import tag_points
from repro.mesh import Mesh
from repro.models import pipeline as pm
from repro.models import schedules as sched
from repro.runtime import MeshExecutor
from repro.sim import TPU_V3, costmodel
from repro.spmd import count_collectives, is_collective, lower
from repro.trace import ShapeDtype, ops, pytree, trace


def mp_tactic(axis="model"):
    """Megatron-style tiling of the pipeline models' MLP weights."""

    def spec(name, value):
        return {"up_w": 1, "down_w": 0}.get(name.split("/")[-1], UNKNOWN)

    tactic = ManualPartition({"0": spec}, axis=axis)
    tactic.name = "MP"
    return tactic


def trace_fori(trip=4):
    def f(x, w):
        def body(i, acc):
            return (ops.tanh(acc @ w),)
        return ops.fori_loop(0, trip, body, (x,))[0]

    return trace(f, ShapeDtype((8, 4)), ShapeDtype((4, 4))).function


def trace_while(trip=3):
    def f(x, w):
        def cond(i, acc):
            return i < trip

        def body(i, acc):
            return (acc @ w,)

        return ops.while_loop(cond, body, (x,), trip_count_hint=trip)[0]

    return trace(f, ShapeDtype((8, 4)), ShapeDtype((4, 4))).function


def trace_nested_scan():
    """A scan inside a scan body, the inner body closing over a weight
    two levels up (threaded through both loops as an invariant)."""
    def f(x, w):
        def outer(i, h):
            def inner(j, g):
                return ops.tanh(g @ w)

            return ops.scan(inner, [h], 2)

        return ops.scan(outer, [x], 3)

    return trace(f, ShapeDtype((8, 4)), ShapeDtype((4, 4))).function


def trace_while_reduced_cond():
    """A while_loop whose predicate reduces over a carry: with the carry
    tiled, the cond region needs an ``all_reduce`` before its compare."""
    def f(x, w, count):
        def cond(i, acc, count):
            return ops.reduce_sum(count) < 24.0

        def body(i, acc, count):
            return (ops.tanh(acc @ w), count + 1.0)

        return ops.while_loop(cond, body, (x, count), trip_count_hint=3)[0]

    return trace(f, ShapeDtype((8, 4)), ShapeDtype((4, 4)),
                 ShapeDtype((8,))).function


def trace_shared_pending_sum():
    """A microbatch loop whose body reads one pending ``#sum`` at two
    non-linear sites: it must be reduced once, inside the body."""
    def f(x, w1, w2):
        def body(i, acc):
            chunk = ops.dynamic_slice_in_dim(x, i * 4, 4, dim=0)
            y = ops.tanh(chunk @ w1) @ w2
            out = ops.tanh(y) + ops.exp(y)
            return (ops.dynamic_update_slice_in_dim(acc, out, i * 4, dim=0),)

        return ops.scan(body, (ops.zeros_like(x),), trip_count=4)

    return trace(f, ShapeDtype((16, 8)), ShapeDtype((8, 8)),
                 ShapeDtype((8, 8))).function


def priced_like_reference(fn, mesh, tactics):
    """Apply ``tactics`` one by one; after each, the estimate of a
    long-lived estimator and a fresh estimator's both equal the
    materializing reference on every field.  Returns the final env."""
    env = ShardingEnv(mesh)
    propagate(fn, env)
    long_lived = costmodel.StreamingEstimator(fn, mesh, TPU_V3)
    for tactic in tactics:
        tactic.apply(fn, env)
        fast = long_lived.estimate_incremental(env)
        fresh = costmodel.StreamingEstimator(
            fn, mesh, TPU_V3).estimate_incremental(env)
        full = reference_estimate(fn, env, TPU_V3)
        assert_estimates_identical(fast, full, tactic.name)
        assert_estimates_identical(fresh, full, tactic.name)
    return env


class TestLoopCarryPropagation:
    """Sharding reaches the fixed point through loop carries."""

    def test_fori_carry_fixed_point(self):
        fn = trace_fori()
        env = ShardingEnv(Mesh({"d": 2}))
        tile(env, fn.params[0], 0, "d")
        propagate(fn, env)
        loop = next(op for op in fn.ops if op.opcode == "fori_loop")
        body = loop.regions[0]
        # init carry -> body carry param -> body result -> loop result.
        assert env.sharding(loop.results[0]).spec() == "[{d}, {}]"
        assert [env.sharding(p).spec() for p in body.params] == [
            "[]", "[{d}, {}]", "[{}, {}]"
        ]
        assert env.sharding(body.results[0]).spec() == "[{d}, {}]"

    def test_while_carry_and_replicated_predicate(self):
        fn = trace_while()
        env = ShardingEnv(Mesh({"d": 2}))
        tile(env, fn.params[0], 0, "d")
        propagate(fn, env)
        wl = next(op for op in fn.ops if op.opcode == "while_loop")
        body, cond = wl.regions
        assert env.sharding(wl.results[0]).spec() == "[{d}, {}]"
        assert [env.sharding(p).spec() for p in cond.params] == [
            "[]", "[{d}, {}]"
        ]
        # The predicate stays replicated: every device must agree on the
        # loop's termination (lockstep execution).
        assert env.sharding(cond.results[0]).spec() == "[]"

    def test_invariant_weight_tiling_reaches_body(self):
        fn = trace_fori()
        env = ShardingEnv(Mesh({"d": 2}))
        tile(env, fn.params[1], 1, "d")
        propagate(fn, env)
        loop = next(op for op in fn.ops if op.opcode == "fori_loop")
        body = loop.regions[0]
        # The loop-invariant weight's sharding is visible inside the body.
        assert env.sharding(body.params[2]).spec() == "[{}, {d}]"


class TestCanonicalWalkOrder:
    """render_loop_view and tag_points agree on pre-order, body included."""

    def rendered_opcodes(self, text):
        return re.findall(r"= (\w+)\(", text)

    def test_loopview_order_matches_walk(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2}))
        text = render_loop_view(fn, env)
        assert self.rendered_opcodes(text) == [
            op.opcode for op in fn.walk()
        ]

    def test_tag_points_index_into_walk_order(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        walk_tags = [op for op in fn.walk() if op.opcode == "tag"]
        assert [tp.op for tp in tag_points(fn)] == walk_tags
        # Tag points inside the scan body exist (loop promotion kept them).
        scan = next(op for op in fn.ops if op.opcode == "scan")
        body_ops = set(id(op) for op in scan.regions[0].walk())
        assert any(id(tp.op) in body_ops for tp in tag_points(fn))

    def test_budget_counts_body_ops_like_walk(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2}))
        for budget in (3, 7):
            text = render_loop_view(fn, env, max_ops=budget)
            assert len(self.rendered_opcodes(text)) == budget
            assert "..." in text

    def test_while_cond_region_is_labelled(self):
        fn = trace_while()
        env = ShardingEnv(Mesh({"d": 2}))
        text = render_loop_view(fn, env)
        assert "cond(" in text
        assert "body(" in text


class TestPipelineLegality:
    def test_legal_on_microbatch_loop(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2}))
        (loop,) = loop_ops(fn)
        for schedule in SCHEDULES:
            assert pipeline_legal(env, loop, "stage", schedule)

    def test_illegal_cases(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2, "one": 1}))
        (loop,) = loop_ops(fn)
        assert not pipeline_legal(env, loop, "stage", "interleaved")
        assert not pipeline_legal(env, loop, "one", "1f1b")  # K < 2
        # A non-loop op is not pipelineable.
        dense = next(op for op in fn.ops if op.opcode != "scan")
        assert not pipeline_legal(env, dense, "stage", "1f1b")

    def test_double_pipeline_is_illegal(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2, "model": 2}))
        (loop,) = loop_ops(fn)
        apply_pipeline(env, loop, "stage", "1f1b")
        assert not pipeline_legal(env, loop, "stage", "1f1b")
        assert not pipeline_legal(env, loop, "model", "1f1b")

    def test_axis_conflict_is_illegal(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2}))
        mp_tactic("stage").apply(fn, env)
        (loop,) = loop_ops(fn)
        assert not pipeline_legal(env, loop, "stage", "1f1b")

    def test_pipeline_action_wire_roundtrip(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2, "model": 2}))
        actions = candidate_actions(fn, env, ["stage", "model"])
        pipeline_actions = [a for a in actions if a[0] == PIPELINE]
        assert pipeline_actions, "PIPELINE missing from the action space"
        # Applying one pins the marker and survives propagation.
        assert try_apply_action(fn, env, pipeline_actions[0])
        propagate(fn, env)
        (loop,) = loop_ops(fn)
        assert any(
            pin.startswith("pipe:")
            for pin in env.sharding(loop.results[0]).pinned
        )

    def test_pipeline_tactic_rejects_bad_targets(self):
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2}))
        with pytest.raises(ShardingError):
            PipelinePartition(axis="stage", loop_index=5).apply(fn, env)
        with pytest.raises(ShardingError):
            PipelinePartition(axis="stage", schedule="bogus").apply(fn, env)


class TestGoldenCollectives:
    """Golden counts under the paper-style schedules (trip-weighted)."""

    def counts(self, tracer, tactics, mesh):
        fn = tracer(pm.tiny()).function
        env = ShardingEnv(mesh)
        for tactic in tactics:
            tactic.apply(fn, env)
        lowered = lower(fn, env)
        return count_collectives(lowered.function).as_dict()

    @pytest.mark.parametrize("tracer,golden", [
        (pm.trace_pipeline_transformer,
         {"AG": 2, "AR": 0, "RS": 0, "A2A": 0}),
        (pm.trace_pipeline_moe,
         {"AG": 2, "AR": 0, "RS": 0, "A2A": 0}),
    ], ids=["dense", "moe"])
    def test_bp(self, tracer, golden):
        bp = sched.bp({"1": 0}, axis="batch")
        assert self.counts(tracer, [bp], Mesh({"batch": 2})) == golden

    @pytest.mark.parametrize("tracer,golden", [
        (pm.trace_pipeline_transformer,
         {"AG": 0, "AR": 8, "RS": 0, "A2A": 0}),
        (pm.trace_pipeline_moe,
         {"AG": 0, "AR": 6, "RS": 0, "A2A": 0}),
    ], ids=["dense", "moe"])
    def test_megatron(self, tracer, golden):
        assert self.counts(
            tracer, [mp_tactic("model")], Mesh({"model": 2})
        ) == golden

    @pytest.mark.parametrize("tracer,golden", [
        (pm.trace_pipeline_transformer,
         {"AG": 0, "AR": 8, "RS": 0, "A2A": 0}),
        (pm.trace_pipeline_moe,
         {"AG": 0, "AR": 6, "RS": 0, "A2A": 0}),
    ], ids=["dense", "moe"])
    def test_pipeline_hybrid(self, tracer, golden):
        tactics = [sched.pp("stage"), mp_tactic("model")]
        assert self.counts(
            tracer, tactics, Mesh({"stage": 2, "model": 2})
        ) == golden

    def test_pipeline_prices_p2p(self):
        """The hybrid lowering prices stage p2p as its own pseudo-collective
        even though count_collectives (comm ops only) ignores it."""
        fn = pm.trace_pipeline_transformer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2}))
        sched.pp("stage").apply(fn, env)
        estimate = reference_estimate(fn, env, TPU_V3)
        assert "pipeline_p2p" in estimate.collective_time_s
        assert estimate.collective_time_s["pipeline_p2p"] > 0


class TestCrossBackendPins:
    """Fixed-seed search determinism across schedulers, and against the
    from-scratch reference, over the loop + PIPELINE action space."""

    MESH = Mesh({"stage": 2, "model": 2})

    def run(self, backend):
        traced = pm.trace_pipeline_transformer(pm.tiny())
        return traced, mcts_search(
            traced.function, ShardingEnv(self.MESH), ["stage", "model"],
            device=TPU_V3, budget=8, seed=11, backend=backend, workers=2,
        )

    def test_search_matches_reference(self):
        traced, serial = self.run("serial")
        assert serial.cost == reference_cost(traced.function, self.MESH,
                                             serial.actions, TPU_V3)

    def test_serial_equals_batched_equals_process(self):
        _, serial = self.run("serial")
        _, batched = self.run("batched")
        _, process = self.run("process")
        assert serial.actions == batched.actions == process.actions
        assert serial.cost == batched.cost == process.cost


class TestEstimatePathIdentity:
    """Journal-driven, fresh-estimator and materialized estimates
    bit-identical on pipelined programs."""

    @pytest.mark.parametrize("tracer", [
        pm.trace_pipeline_transformer, pm.trace_pipeline_moe,
    ], ids=["dense", "moe"])
    def test_three_way_field_exact(self, tracer):
        priced_like_reference(
            tracer(pm.tiny()).function, Mesh({"stage": 2, "model": 2}),
            (sched.pp("stage"), mp_tactic("model")))


class TestRegionFold:
    """Loop regions are priced by the program's own refresh-and-fold,
    recursively: a reconcile inside a cond region, a pending reduction
    deduplicated within (and only within) a pipelined body, and a loop
    nested in a loop body — each from a long-lived *and* from a fresh
    estimator, bit-identical to the materializing reference after every
    tactic, and executing to the interpreter's numerics."""

    CASES = {
        "nested_scan": (
            trace_nested_scan, {"batch": 2, "model": 2},
            lambda: [ManualPartition({"0": 0}, axis="batch"),
                     ManualPartition({"1": 0}, axis="model")]),
        "while_reduced_cond": (
            trace_while_reduced_cond, {"batch": 2, "model": 2},
            lambda: [ManualPartition({"0": 0, "2": 0}, axis="batch"),
                     ManualPartition({"1": 1}, axis="model")]),
        "shared_pending_sum": (
            trace_shared_pending_sum, {"stage": 2, "model": 2},
            lambda: [PipelinePartition("stage"),
                     ManualPartition({"2": 0}, axis="model")]),
    }

    @staticmethod
    def region_collectives(lowered):
        """Collective opcodes per region depth-first path, e.g.
        ``{"scan/body": ["all_reduce"]}`` (top level omitted)."""
        found = {}

        def visit(fn, path):
            for op in fn.ops:
                for region in op.regions:
                    here = f"{path}{op.opcode}/{region.name}"
                    found[here] = [o.opcode for o in region.ops
                                   if is_collective(o.opcode)]
                    visit(region, here + "/")

        visit(lowered.function, "")
        return found

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_priced_like_the_reference_and_executes(self, case):
        tracer, axes, tactics = self.CASES[case]
        fn = tracer()
        env = priced_like_reference(fn, Mesh(axes), tactics())
        lowered = lower(fn, env)
        # Each case prices what its name says.
        assert self.region_collectives(lowered) == {
            "nested_scan": {"scan/body": [],
                            "scan/body/scan/body": ["reduce_scatter"]},
            "while_reduced_cond": {"while_loop/body": ["all_gather"],
                                   "while_loop/cond": ["all_reduce"]},
            "shared_pending_sum": {"scan/body": ["all_reduce"]},
        }[case]
        TestExecutionEquivalence().check(fn, env)


class TestExecutionEquivalence:
    """Partitioned pipelined programs equal the unpartitioned reference."""

    def check(self, fn, env, atol=1e-4):
        lowered = lower(fn, env)
        rng = np.random.RandomState(0)
        args = [rng.randn(*p.type.shape).astype(np.float32) * 0.1
                for p in fn.params]
        expected = evaluate_function(fn, args)
        actual = MeshExecutor(lowered)(*args)
        for got, want in zip(actual, expected):
            np.testing.assert_allclose(got, want, atol=atol, rtol=1e-3)

    @pytest.mark.parametrize("tracer", [
        pm.trace_pipeline_transformer, pm.trace_pipeline_moe,
    ], ids=["dense", "moe"])
    def test_hybrid_pipeline_tensor(self, tracer):
        fn = tracer(pm.tiny()).function
        env = ShardingEnv(Mesh({"stage": 2, "model": 2}))
        sched.pp("stage").apply(fn, env)
        mp_tactic("model").apply(fn, env)
        self.check(fn, env)

    def test_while_loop_partitioned(self):
        fn = trace_while()
        env = ShardingEnv(Mesh({"d": 2}))
        tile(env, fn.params[0], 0, "d")
        propagate(fn, env)
        self.check(fn, env)

    def test_fori_loop_partitioned(self):
        fn = trace_fori()
        env = ShardingEnv(Mesh({"d": 2}))
        tile(env, fn.params[0], 0, "d")
        propagate(fn, env)
        self.check(fn, env)


def test_runaway_while_loop_stops_on_both_paths(monkeypatch):
    """A predicate that stays true raises after ``MAX_WHILE_ITERATIONS`` on
    the reference interpreter and on the simulated mesh alike (the mesh
    used to spin forever); one cap bounds both."""
    from repro.ir import interpreter

    monkeypatch.setattr(interpreter, "MAX_WHILE_ITERATIONS", 3)

    def f(x, w):
        return ops.while_loop(lambda i, acc: i >= 0,
                              lambda i, acc: (acc @ w,), (x,))[0]

    traced = trace(f, ShapeDtype((8, 4)), ShapeDtype((4, 4)))
    args = [np.ones((8, 4), np.float32), np.eye(4, dtype=np.float32)]
    with pytest.raises(ExecutionError, match="exceeded 3 iterations"):
        evaluate_function(traced.function, args)
    fn, _ = partir_jit(traced, Mesh({"d": 2}),
                       [ManualPartition({"0": 0}, axis="d")])
    with pytest.raises(ExecutionError, match="exceeded 3 iterations"):
        fn(*args)


class TestIndivisibleOperandDim:
    """The 2-expert MoE on a 4x2 mesh: a result tiling whose factor lands
    on an operand dim the axis does not divide (``reshape (2,2) -> (4,)``
    tiled 4-way over a replicated operand) lowers as compute-untiled +
    trailing ``all_slice`` — it used to raise ``ShardingError: dim of size
    2 not divisible by axes ('batch',)`` on 15 of the 138 candidates and
    so on every search that drew one."""

    MESH = Mesh({"batch": 4, "model": 2})

    @staticmethod
    def inputs(fn):
        rng = np.random.RandomState(0)
        return [np.abs(rng.randn(*p.type.shape)).astype(np.float32)
                for p in fn.params]

    def test_search_returns_and_executes(self):
        traced = pm.trace_pipeline_moe(pm.tiny())
        partitioned, _ = partir_jit(traced, self.MESH, [AutomaticPartition(
            ["batch", "model"], {"budget": 8, "seed": 0})])
        args = self.inputs(traced.function)
        got, _ = pytree.flatten(
            partitioned(*pytree.unflatten(traced.in_treedef, args)))
        for have, want in zip(got, evaluate_function(traced.function, args)):
            np.testing.assert_allclose(have, want, atol=1e-3)

    def test_four_expert_plan_executes_cold_and_warm(self, tmp_path):
        """ROADMAP 2(4)'s first customer: the default-budget search on
        the 4-expert MoE returns cold and again warm from ``cache_dir``
        (where it was once recorded as raising ``ShardingError``), and
        both plans run on the executor to the interpreter's numerics."""
        traced = pm.trace_pipeline_moe(pm.tiny(batch=16, num_experts=4))
        args = self.inputs(traced.function)
        expected = evaluate_function(traced.function, args)
        for warm in (False, True):
            tactic = AutomaticPartition(["batch", "model"],
                                        {"budget": 24, "seed": 0},
                                        cache_dir=str(tmp_path))
            partitioned, _ = partir_jit(traced, self.MESH, [tactic])
            assert (tactic.last_search.warm_cache_hits > 0) == warm
            got, _ = pytree.flatten(
                partitioned(*pytree.unflatten(traced.in_treedef, args)))
            for have, want in zip(got, expected):
                np.testing.assert_allclose(have, want, atol=1e-3)

    def test_every_single_candidate_prices_and_executes(self):
        fn = pm.trace_pipeline_moe(pm.tiny()).function
        evaluator = Evaluator(fn, ShardingEnv(self.MESH), TPU_V3)
        candidates = candidate_actions(fn, evaluator.root,
                                       ["batch", "model"])
        assert len(candidates) == 138
        for action in candidates:
            assert evaluator.evaluate((action,)) == reference_cost(
                fn, self.MESH, (action,), TPU_V3), action
        args = self.inputs(fn)
        expected = evaluate_function(fn, args)
        # The mid-function batch tilings are the ones that used to raise.
        for action in candidates:
            if action[0] != 1 or action[3] != "batch":
                continue
            lowered = lower(fn, reference_env(fn, self.MESH, (action,)))
            for got, want in zip(MeshExecutor(lowered)(*args), expected):
                np.testing.assert_allclose(got, want, atol=1e-3)
