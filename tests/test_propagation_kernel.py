"""The compiled propagation kernel's sharing and caching contracts.

* one shared :class:`OpShardingRule` per distinct factor table, one shared
  transfer record per (rule, operand/result ranks);
* nothing derived rides a pickle: every view of a function lives in its
  one ``_derived`` slot, a propagated function pickles to the bytes of an
  unpropagated one, and the peer rebuilds rule references and the index
  against *its own* canonical shardings;
* the per-function index is rebuilt, not trusted, after the function grew;
* event details are rendered on first read and read as they always did.
"""

import pickle

from repro.api import ManualPartition
from repro.baselines.gspmd import _GspmdPropagator
from repro.core.pipeline import stage_split
from repro.core.propagate import Propagator, _function_index, propagate
from repro.core.rules import rule_for
from repro.core.sharding import Event, Sharding, ShardingEnv
from repro.ir import FunctionBuilder
from repro.ir.tagpoints import tag_points
from repro.mesh import Mesh
from repro.models import pipeline as pm
from repro.models import schedules as sched
from repro.models import transformer

from conftest import build_matmul_chain
from oracle import full_sweep

MESH = Mesh({"batch": 4, "model": 2})

DOT = {"lhs_contract": (1,), "rhs_contract": (0,)}


def _two_dots(second_attrs):
    b = FunctionBuilder("main")
    x = b.param((8, 8), name="x")
    w = b.param((8, 8), name="w")
    first = b.emit("dot_general", [x, w], DOT)
    second = b.emit("dot_general", [first.result, w], second_attrs)
    b.ret(second.result)
    return first, second


class TestSharedRules:
    def test_structurally_identical_ops_share_one_rule_object(self):
        first, second = _two_dots(DOT)
        assert rule_for(first) is rule_for(second)
        # ... across functions too: the table is process-wide.
        other, _ = _two_dots(DOT)
        assert rule_for(other) is rule_for(first)

    def test_one_differing_attr_means_a_different_rule(self):
        first, second = _two_dots({"lhs_contract": (0,),
                                   "rhs_contract": (0,)})
        assert rule_for(first) is not rule_for(second)
        assert rule_for(first).factors != rule_for(second).factors

        b = FunctionBuilder("main")
        x = b.param((4, 6, 8), name="x")
        t1 = b.emit("transpose", [x], {"permutation": (0, 2, 1)})
        t2 = b.emit("transpose", [x], {"permutation": (2, 1, 0)})
        t3 = b.emit("transpose", [x], {"permutation": (0, 2, 1)})
        assert rule_for(t1) is not rule_for(t2)
        assert rule_for(t1) is rule_for(t3)

    def test_elementwise_ops_of_one_arity_and_rank_share(self):
        b = FunctionBuilder("main")
        x = b.param((4, 8), name="x")
        y = b.param((4, 8), name="y")
        add = b.emit("add", [x, y])
        mul = b.emit("mul", [x, y])
        neg = b.emit("neg", [x])
        assert rule_for(add) is rule_for(mul)
        assert rule_for(add) is not rule_for(neg)

    def test_rule_reference_is_dropped_by_pickle_and_rebuilt(self):
        first, _ = _two_dots(DOT)
        shared = rule_for(first)
        clone = pickle.loads(pickle.dumps(first))
        assert not hasattr(clone, "_sharding_rule")
        assert rule_for(clone) is shared
        assert clone._sharding_rule is shared

    def test_same_rule_and_ranks_share_one_transfer_record(self):
        traced = transformer.trace_training_step(transformer.tiny())
        index = _function_index(traced.function)
        assert index.ops == traced.function.index.ops
        assert len(index.transfers) == len(index.ops)
        distinct = {id(t) for t in index.transfers}
        assert len(distinct) * 10 < len(index.ops)
        by_key = {}
        for op, transfer in zip(index.ops, index.transfers):
            key = (id(rule_for(op)) if not transfer.loop else None,
                   tuple(len(v.type.shape) for v in op.operands),
                   tuple(len(v.type.shape) for v in op.results))
            assert by_key.setdefault(key, transfer) is transfer


def _derived_slots(fn):
    return [key for key in vars(fn) if key.startswith("_")]


class TestNothingDerivedRidesThePickle:
    def _schedule(self):
        return [sched.bp({"tokens": 0, "targets": 0}), sched.megatron_mp()]

    def test_propagated_function_pickles_like_an_unpropagated_one(self):
        traced = transformer.trace_training_step(transformer.tiny())
        function = traced.function
        fresh = pickle.dumps(function)
        env = ShardingEnv(MESH)
        for tactic in self._schedule():
            tactic.apply(function, env)
        tag_points(function)
        # Every view (index, tag points, propagation's records, plan
        # tables) sits in one slot.
        assert _derived_slots(function) == ["_derived"]
        assert len(function._derived[1]) >= 2
        assert pickle.dumps(function) == fresh
        # ... and like a fresh retrace (value uids are the only difference;
        # they are small ints, so sizes agree to a fraction of a percent).
        retrace = transformer.trace_training_step(transformer.tiny())
        assert abs(len(pickle.dumps(retrace.function)) - len(fresh)) \
            <= len(fresh) // 200

    def test_pipeline_caches_are_dropped_too(self):
        function = pm.trace_pipeline_transformer(pm.tiny()).function
        fresh = pickle.dumps(function)
        env = ShardingEnv(Mesh({"stage": 2, "model": 2}))
        sched.pp("stage").apply(function, env)
        (loop,) = function.index.loops
        body = loop.regions[0]
        stage_split(body, 2)
        assert _derived_slots(function) == _derived_slots(body) \
            == ["_derived"]
        clone = pickle.loads(pickle.dumps(function))
        assert pickle.dumps(function) == fresh

        assert _derived_slots(clone) == []
        for op in clone.walk():
            for region in op.regions:
                assert _derived_slots(region) == []

    def test_round_tripped_function_propagates_to_the_same_state(self):
        traced = transformer.trace_training_step(transformer.tiny())
        function = traced.function
        env = ShardingEnv(MESH)
        for tactic in self._schedule():
            tactic.apply(function, env)
        clone = pickle.loads(pickle.dumps(function))
        assert _derived_slots(clone) == []
        clone_env = ShardingEnv(MESH)
        for tactic in self._schedule():
            tactic.apply(clone, clone_env)
        assert clone_env.portable_state(clone) \
            == env.portable_state(function)
        assert clone_env.stats.snapshot() == env.stats.snapshot()
        assert [(e.kind, e.axis) for e in clone_env.events] \
            == [(e.kind, e.axis) for e in env.events]


class TestIndexGuard:
    def test_appending_an_op_after_propagate_rebuilds_the_index(self):
        b = FunctionBuilder("main")
        x = b.param((8, 8), name="x")
        w = b.param((8, 8), name="w")
        h = b.emit1("dot_general", [x, w], DOT)
        function = b.function
        env = ShardingEnv(MESH)
        env.set_sharding(x, env.sharding(x).with_tile(0, "batch"))
        propagate(function, env)
        stale = _function_index(function)
        assert len(stale.ops) == 1
        assert env.sharding(h).tile_dim_of("batch") == 0

        out = b.emit1("neg", [h])
        function.results = [out]
        full_sweep(function, env)  # nothing is dirty: seed every op
        rebuilt = _function_index(function)
        assert rebuilt is not stale
        assert len(rebuilt.ops) == len(rebuilt.transfers) == 2
        # The new op was indexed and visited, not skipped or misread
        # through the one-op table.
        assert env.sharding(out).tile_dim_of("batch") == 0


class TestLazyEvents:
    def test_detail_renders_on_first_read_and_sticks(self):
        function, (x, _w1, _w2, x1, _x2) = build_matmul_chain()
        env = ShardingEnv(Mesh({"B": 4, "M": 2}))
        env.set_sharding(x, env.sharding(x).with_tile(0, "B"))
        propagate(function, env)
        event = env.events[0]
        assert isinstance(event._detail, tuple)  # not formatted yet
        assert event.detail == f"dim 0 of {x1!r}"
        assert event._detail == event.detail  # rendered once, kept
        assert [e.kind for e in env.events] == ["tile", "tile"]

    def test_plain_string_details_still_work(self):
        env = ShardingEnv(MESH)
        env.record("pin", None, "batch", "pinned by hand")
        assert env.events[-1].detail == "pinned by hand"
        assert Event("tile", None, "model").detail == ""

    def test_conflict_text_is_what_it_always_was(self):
        function, (x, w1, *_rest) = build_matmul_chain()
        env = ShardingEnv(Mesh({"B": 4, "M": 2}))
        # x tiled on its row, w1 on its column, same axis: both free
        # factors of the first matmul have evidence.
        env.set_sharding(x, env.sharding(x).with_tile(0, "B"))
        env.set_sharding(w1, env.sharding(w1).with_tile(1, "B"))
        propagate(function, env)
        details = [e.detail for e in env.conflicts()]
        assert details == [
            "dot_general: factors [0, 1] both match on axis 'B'"]


class TestConflictPolicyHook:
    def _conflicted(self, propagator_cls):
        function, (x, w1, _w2, x1, _x2) = build_matmul_chain()
        env = ShardingEnv(Mesh({"B": 4, "M": 2}))
        env.set_sharding(x, env.sharding(x).with_tile(0, "B"))
        env.set_sharding(w1, env.sharding(w1).with_tile(1, "B"))
        propagator_cls(function, env).run()
        return env, x1

    def test_partir_blocks_where_gspmd_picks_the_highest_factor(self):
        env, x1 = self._conflicted(Propagator)
        assert env.sharding(x1) == Sharding.replicated(2)

        env, x1 = self._conflicted(_GspmdPropagator)
        assert env.sharding(x1).tile_dim_of("B") == 1
        assert [e.detail for e in env.conflicts()] == [
            "dot_general: resolved greedily among [0, 1]"]

    def test_the_baseline_overrides_only_the_policy(self):
        overridden = {
            name for name, member in vars(_GspmdPropagator).items()
            if callable(member)
        }
        assert overridden == {"_choose"}
