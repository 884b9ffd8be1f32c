"""The compiled propagation kernel's sharing and caching contracts.

* one compiled :class:`OpShardingRule` per (factors, adjacent ranks,
  arity), shared by the interned op classes (one per structure) with
  that key, and every op has one;
* nothing derived rides a pickle: every view of a function lives in its
  one ``_derived`` slot, a propagated function pickles to the bytes of an
  unpropagated one, and the peer rebuilds rule references and the index
  against *its own* canonical shardings;
* the per-function index is rebuilt, not trusted, after the function grew;
* event details are rendered on first read and read as they always did;
* a visit is decided once per (memo head, adjacent shardings) and then
  replayed, from one memo per (function, mesh, propagator class): every
  scenario sharing a memo ends where a fresh trace (an empty memo) does.
"""

import pickle

import pytest

from repro.api import ManualPartition
from repro.auto.search import mcts_search
from repro.baselines.gspmd import _GspmdPropagator
from repro.core.pipeline import stage_split
from repro.core import propagate as propagate_mod
from repro.core.propagate import Propagator, _function_index, propagate
from repro.core import opclass as opclass_mod
from repro.core import rules as rules_mod
from repro.core.opclass import op_class, rule_for
from repro.core.sharding import Event, Sharding, ShardingEnv
from repro.ir import FunctionBuilder
from repro.ir.tagpoints import tag_points
from repro.ir import opdefs
from repro.ir.values import Operation, Value
from repro.mesh import Mesh
from repro.models import bottleneck, gns, transformer, unet
from repro.models import pipeline as pm
from repro.models import schedules as sched

from conftest import build_matmul_chain
from oracle import FAMILIES, full_sweep

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

    def test_classes_of_one_rank_and_arity_share_one_table(self):
        b = FunctionBuilder("main")
        x, y = b.param((4, 8), name="x"), b.param((4, 8), name="y")
        u, v = b.param((8, 8), name="u"), b.param((8, 8), name="v")
        add = b.emit("add", [x, y])
        mul = b.emit("mul", [u, v])
        assert op_class(add) is not op_class(mul)
        assert op_class(add).rule.dim_factors is \
            op_class(mul).rule.dim_factors

    def test_ranks_key_the_rule(self):
        """Equal factors over different ranks are different tables."""
        b = FunctionBuilder("main")
        x = b.param((4, 8), name="x")
        y = b.param((4, 8, 2), name="y")
        narrow = b.emit("slice", [x], {"starts": (0, 0), "limits": (4, 4)})
        narrower = b.emit("slice", [y], {"starts": (0, 0, 0),
                                         "limits": (4, 4, 1)})
        assert rule_for(narrow) is not rule_for(narrower)
        assert rule_for(narrow).dim_factors == ((0, None), (0, None))
        assert rule_for(narrower).dim_factors == ((0, None, None),
                                                  (0, None, None))

    def test_every_non_loop_opcode_has_a_rule(self):
        """An opcode without a builder is elementwise or fully blocked
        (the collectives lowering emits): the empty table for its ranks."""
        b = FunctionBuilder("main")
        x = b.param((4, 8), name="x")
        bare = sorted(set(opdefs._REGISTRY) - opdefs.LOOP_OPS
                      - set(rules_mod._BUILDERS))
        assert {"all_gather", "all_reduce", "all_to_all"} <= set(bare)
        for opcode in bare:
            rule = rule_for(Operation(opcode, [x], {}, [x.type]))
            assert rule.num_operands == 1 and rule.single_result
            assert rule.defaults == (Sharding.replicated(2),) * 2
            if opdefs.get(opcode).elementwise:
                assert rule.dim_factors == ((0, 1), (0, 1)), opcode
            else:
                assert rule.factors == (), opcode
                assert rule.dim_factors == ((None, None),) * 2, opcode

    def test_rule_reference_is_dropped_by_pickle_and_rebuilt(self):
        first, _ = _two_dots(DOT)
        shared = rule_for(first)
        clone = pickle.loads(pickle.dumps(first))
        assert clone._op_class is None
        assert rule_for(clone) is shared
        assert clone._op_class.rule is shared

    def test_a_fresh_trace_builds_one_rule_per_new_class(self, monkeypatch):
        """The rule is built when a class is first seen, not per op."""
        builds = []
        build_rule = rules_mod.build_rule
        monkeypatch.setattr(rules_mod, "build_rule",
                            lambda op: builds.append(op) or build_rule(op))
        # An empty intern table: every class of the trace is new.
        monkeypatch.setattr(opclass_mod, "_CLASSES", {})
        ops = FAMILIES["transformer.tiny"].build().function.ops
        classes = {op_class(op) for op in ops}
        assert len(builds) == len(classes) < len(ops)

    @pytest.mark.parametrize("family,heads", [
        ("t4.auto", 181), ("unet_tiny", 209), ("gns_tiny", 170),
        ("pipe_tiny", 35), ("moe_tiny8", 63), ("bottleneck", 47),
        ("gns.es", 173)])
    def test_classes_per_family(self, family, heads):
        """The interned classes of each benchmark program's non-loop ops
        (a loop op gets a class of its own), and propagation's memo
        heads: the value pattern splits a class there, and only there."""
        function = CLASS_FAMILIES[family]().function
        assert len({op_class(op) for op in function.walk()
                    if not op.regions}) == CLASS_COUNTS[family]
        assert len(set(_function_index(function).heads) - {None}) == heads


#: Interned classes per benchmark program, which lowering plans and
#: pricing templates key on.
CLASS_COUNTS = {"t4.auto": 172, "unet_tiny": 197, "gns_tiny": 160,
                "pipe_tiny": 34, "moe_tiny8": 62, "bottleneck": 44,
                "gns.es": 163}


#: The benchmark programs whose class counts are pinned.
CLASS_FAMILIES = {
    "t4.auto": lambda: transformer.trace_training_step(transformer.t32(
        num_layers=4, d_model=256, num_heads=4, d_head=64, ffw_dim=1024,
        vocab=1024, seq_len=64, batch=16)),
    "unet_tiny": lambda: unet.trace_training_step(unet.tiny()),
    "gns_tiny": lambda: gns.trace_training_step(gns.tiny()),
    "pipe_tiny": lambda: pm.trace_pipeline_transformer(pm.tiny()),
    "moe_tiny8": lambda: pm.trace_pipeline_moe(
        pm.tiny(batch=16, num_experts=8)),
    "bottleneck": lambda: bottleneck.trace_training_step(
        bottleneck.ensemble()),
    "gns.es": lambda: gns.trace_training_step(gns.gns(
        num_nodes=2048, num_edges=16384, feature_dim=64, latent_dim=512,
        mlp_layers=5, message_steps=24, out_dim=64)),
}


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
        assert len(rebuilt.ops) == len(rebuilt.classes) == 2
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


# -- the visit memo -----------------------------------------------------------

def _canonical(function, env):
    """``env``'s final state, events and visit count over ``function``,
    with values and ops named by position: runs over two traces of one
    program compare equal.  Payloads are compared unrendered."""
    value_ids = function.index.value_ids
    op_ids = {op: i for i, op in enumerate(function.index.ops)}

    def name(arg):
        return ("value", value_ids[arg]) if isinstance(arg, Value) else arg

    events = [(e.kind, op_ids[e.op], e.axis, tuple(map(name, e._detail)))
              for e in env.events]
    return env.portable_state(function), events, env.stats.ops_processed


def _seeded(function, mesh, seeds, propagator=Propagator):
    """Propagate ``seeds`` (``(value picker, dim, axis)``) over
    ``function`` on a fresh env; returns the env."""
    env = ShardingEnv(mesh)
    for pick, dim, axis in seeds:
        value = pick(function)
        env.set_sharding(value, env.sharding(value).with_tile(dim, axis))
    propagator(function, env).run()
    return env


def _shared_equals_fresh(build, shared, mesh, seeds,
                         propagator=Propagator):
    """Run ``seeds`` over the ``shared`` function (whose memo earlier
    runs filled) and over a fresh ``build()``: the same canonical
    outcome.  Returns it."""
    outcome = _canonical(shared, _seeded(shared, mesh, seeds, propagator))
    fresh = build()
    assert outcome == _canonical(fresh,
                                 _seeded(fresh, mesh, seeds, propagator))
    return outcome


def _param(i):
    return lambda function: function.params[i]


def _result(i):
    return lambda function: function.results[i]


def _chain():
    return build_matmul_chain()[0]


def _reshape():
    b = FunctionBuilder("main")
    x = b.param((8,), name="x")
    return b.ret(b.emit1("reshape", [x], {"new_shape": (2, 4)}))


def _squares():
    """``x * x`` beside ``x * y``, at equal shapes."""
    b = FunctionBuilder("main")
    x = b.param((4, 4), name="x")
    y = b.param((4, 4), name="y")
    return b.ret(b.emit1("mul", [x, x]), b.emit1("mul", [x, y]))


def _layers():
    """Two identical ``tanh(x @ w)`` layers."""
    b = FunctionBuilder("main")
    x = b.param((8, 8), name="x")
    w1 = b.param((8, 8), name="w1")
    w2 = b.param((8, 8), name="w2")
    h = b.emit1("tanh", [b.emit1("dot_general", [x, w1], DOT)])
    return b.ret(b.emit1("tanh", [b.emit1("dot_general", [h, w2], DOT)]))


class TestVisitMemo:
    def test_gspmd_and_kernel_runs_keep_their_own_memo(self):
        """Greedy resolution applies a factor where the kernel records a
        conflict, on the same function, mesh and adjacent shardings."""
        mesh = Mesh({"B": 4, "M": 2})
        seeds = [(_param(0), 0, "B"), (_param(1), 1, "B")]
        shared = _chain()
        greedy = _shared_equals_fresh(_chain, shared, mesh, seeds,
                                      _GspmdPropagator)
        blocking = _shared_equals_fresh(_chain, shared, mesh, seeds)
        assert greedy != blocking
        assert [kind for kind, *_ in blocking[1]] == ["conflict"]

    def test_each_mesh_keeps_its_own_memo(self):
        """Tiling ``x`` over ``a`` reaches the reshape's 2-row result on
        ``{a: 2}`` and is blocked there on ``{a: 4}``."""
        seeds = [(_param(0), 0, "a")]
        shared = _reshape()
        two = _shared_equals_fresh(_reshape, shared, Mesh({"a": 2}), seeds)
        four = _shared_equals_fresh(_reshape, shared, Mesh({"a": 4}), seeds)
        assert [kind for kind, *_ in two[1]] == ["tile"]
        assert [kind for kind, *_ in four[1]] == ["blocked"]

    def test_a_repeated_operand_is_part_of_the_signature(self):
        """Backward from tiled results, ``x * x`` writes one value and
        ``x * y`` two: with the adjacent shardings equal, only the value
        pattern tells the visits apart.  It is not in the class: the two
        ops share one, and their memo heads differ."""
        mesh = Mesh({"a": 2})
        shared = _squares()
        index = _function_index(shared)
        assert index.classes[0] is index.classes[1]
        assert index.heads[0] != index.heads[1]
        _shared_equals_fresh(_squares, shared, mesh, [(_result(0), 0, "a")])
        state, _, _ = _shared_equals_fresh(_squares, shared, mesh,
                                           [(_result(1), 0, "a")])
        tiled = {i for i, (dims, _, _) in state if dims[0] == ("a",)}
        value_ids = shared.index.value_ids
        assert {value_ids[v] for v in shared.params} <= tiled

    def test_replayed_events_name_the_replaying_ops_values(self):
        mesh = Mesh({"a": 2})
        seeds = [(_param(0), 0, "a")]
        shared = _layers()
        first = _seeded(shared, mesh, seeds)
        # Layer 2 replays layer 1; a second run replays everything.
        assert first.stats.visits_replayed == 2
        second = _seeded(shared, mesh, seeds)
        assert second.stats.visits_replayed == second.stats.ops_processed
        _shared_equals_fresh(_layers, shared, mesh, seeds)
        for env in (first, second):
            assert env.keeps_events
            tiles = [e for e in env.events if e.kind == "tile"]
            assert len(tiles) == 4
            for event in tiles:
                assert event._detail[-1] is event.op.results[0]

    def test_a_pickle_round_trip_carries_no_memo(self):
        mesh = Mesh({"a": 2})
        seeds = [(_param(0), 0, "a")]
        function = _layers()
        _seeded(function, mesh, seeds)
        assert _function_index(function).memos
        clone = pickle.loads(pickle.dumps(function))
        assert "_derived" not in vars(clone)
        env = _seeded(clone, mesh, seeds)
        assert _function_index(clone).memos is not \
            _function_index(function).memos
        # A cold memo: only layer 2 replays, as on a fresh trace.
        assert env.stats.visits_replayed == 2
        fresh = _layers()
        assert _canonical(clone, env) == _canonical(
            fresh, _seeded(fresh, mesh, seeds))


class _Forgetful(dict):
    """A memo that never remembers: every visit is decided afresh."""

    def __setitem__(self, key, outcome):
        pass


def test_cold_search_replays_most_visits(monkeypatch):
    """A cold search on the transformer replays at least 90% of its
    visits, and visits exactly the ops a memo-free kernel does, to the
    same result."""
    family = FAMILIES["transformer.tiny"]

    def search():
        env = ShardingEnv(family.mesh)
        result = mcts_search(family.build().function, env,
                             family.mesh.axis_names, budget=8, seed=0)
        return env.stats, (result.actions, result.cost, result.evaluations,
                           result.propagate_calls, result.ops_processed)

    stats, result = search()
    assert stats.visits_replayed >= 0.9 * stats.ops_processed
    with monkeypatch.context() as patch:
        patch.setattr(propagate_mod._FunctionIndex, "memo",
                      lambda self, cls, mesh: _Forgetful())
        forgetful_stats, forgetful_result = search()
    assert forgetful_stats.visits_replayed == 0
    assert forgetful_result == result
    assert forgetful_stats.ops_processed == stats.ops_processed
