"""The widened action space: tag points, mid-function actions, tree reuse.

Covers the PR 5 tentpole contracts:

* the tracer emits candidate tag points at matmul/scan/reduce outputs
  (and suppresses them with ``tag_points=False``),
* ``tag`` markers are transparent — identity propagation goldens, dropped
  from device-local code, costless in the estimator,
* ``TileTagged``/``SumTagged`` propagation-rule goldens (the exact
  shardings a mid-function action reaches),
* the widened space rides every engine unchanged: undo == fork and
  serial == process equivalence with tag actions in play,
* a fixed-seed pin that tag actions are reachable from
  ``candidate_actions`` and win on the interior-bottleneck ensemble,
* cross-call reuse of the shared log (the incumbent never regresses and
  never adopts what the call may not propose).
"""

import pytest

from oracle import reference_cost
from repro import Mesh, ShapeDtype, trace
from repro.core import actions as actions_mod
from repro.core.actions import try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.ir.tagpoints import tag_points
from repro.auto.evaluator import candidate_actions
from repro.auto.search import mcts_search
from repro.models import bottleneck
from repro.sim import TPU_V3
from repro.spmd.lower import lower
from repro.trace import ops

MESH = Mesh({"batch": 8, "model": 4})


def _mlp_traced(batch=32, width=64, **trace_kwargs):
    def f(state, x):
        h = ops.relu(x @ state["w1"])
        return ops.reduce_sum(h @ state["w2"])

    return trace(
        f,
        {"w1": ShapeDtype((width, width)), "w2": ShapeDtype((width, width))},
        ShapeDtype((batch, width)),
        **trace_kwargs,
    )


def _ensemble_traced():
    cfg = bottleneck.ensemble(batch=2, width=64, d_model=1024, ffw_dim=4096)
    return bottleneck.trace_forward(cfg)


class TestTagPointEmission:
    def test_auto_tags_at_matmul_and_reduce_outputs(self):
        tf = _mlp_traced()
        points = tag_points(tf.function)
        sources = [p.source.opcode for p in points]
        assert sources == ["dot_general", "dot_general", "reduce_sum"]
        assert all(p.auto for p in points)
        assert [p.index for p in points] == list(range(len(points)))
        # Names are prefixed and unique.
        names = [p.name for p in points]
        assert len(set(names)) == len(names)
        assert all(name.startswith("auto/") for name in names)

    def test_tag_points_cached_on_function(self):
        tf = _mlp_traced()
        assert tag_points(tf.function) is tag_points(tf.function)

    def test_tag_points_disabled(self):
        tf = _mlp_traced(tag_points=False)
        assert tag_points(tf.function) == []
        actions = candidate_actions(tf.function, ShardingEnv(MESH),
                                    ["batch"], 8)
        assert actions
        assert all(a[0] == actions_mod.TILE_INPUT for a in actions)

    def test_scan_results_are_tag_points(self):
        def f(x):
            def body(step, carry):
                return carry + x

            return ops.scan(body, [ops.zeros((4, 4))], trip_count=3)

        tf = trace(f, ShapeDtype((4, 4)))
        points = tag_points(tf.function)
        assert any(p.source is not None and p.source.opcode == "scan"
                   for p in points)

    def test_manual_tags_are_points_too(self):
        def f(x):
            return ops.tag(x * 2.0, "doubled")

        tf = trace(f, ShapeDtype((4, 4)))
        points = tag_points(tf.function)
        assert [p.name for p in points] == ["doubled"]
        assert not points[0].auto

    def test_backward_matmuls_are_tagged(self):
        """VJP rules emit through the tracer, so gradient matmuls become
        tag points as well."""
        cfg = bottleneck.ensemble()
        tf = bottleneck.trace_training_step(cfg)
        points = tag_points(tf.function)
        assert len([p for p in points
                    if p.source.opcode == "dot_general"]) >= 4


class TestTagTransparency:
    def test_tags_dropped_from_device_local_code(self):
        tf = _mlp_traced()
        env = ShardingEnv(MESH)
        x = tf.function.params[2]
        env.set_sharding(x, env.sharding(x).with_tile(0, "batch"))
        propagate(tf.function, env)
        lowered = lower(tf.function, env)
        assert all(op.opcode != "tag" for op in lowered.function.walk())

    def test_tag_propagation_is_identity_golden(self):
        """Golden: tiling flows through a tag unchanged, both directions."""
        tf = _mlp_traced()
        env = ShardingEnv(MESH)
        propagate(tf.function, env)
        point = tag_points(tf.function)[0]  # first matmul output
        env.set_sharding(point.value,
                         env.sharding(point.value).with_tile(0, "batch"))
        propagate(tf.function, env)
        producer_out = point.op.operands[0]
        assert env.sharding(producer_out).spec() == "[{batch}, {}]"
        assert env.sharding(point.value).spec() == "[{batch}, {}]"
        # Backward through the matmul to x, forward to the relu output.
        assert env.sharding(tf.function.params[2]).spec() == "[{batch}, {}]"


class TestActionGoldens:
    def test_tile_tagged_golden(self):
        """TileTagged on the ensemble's first matmul output: the interior
        K dimension — born from a size-1 broadcast, unreachable from any
        input — tiles through the whole member computation while every
        function input stays replicated."""
        tf = _ensemble_traced()
        env = ShardingEnv(MESH)
        propagate(tf.function, env)
        points = tag_points(tf.function)
        assert points[0].source.opcode == "dot_general"
        applied = try_apply_action(tf.function, env,
                                   (actions_mod.TILE_TAGGED, 0, 1, "batch"))
        assert applied
        propagate(tf.function, env)
        # [B, K, f] tiled on K...
        assert env.sharding(points[0].value).spec() == "[{}, {batch}, {}]"
        # ...reaches the second matmul's output and the broadcast result...
        assert env.sharding(points[1].value).spec() == "[{}, {batch}, {}]"
        # ...while the inputs stay fully replicated (the broadcast's K is
        # a free factor: no input carries it).
        for param in tf.function.params:
            assert env.sharding(param).is_fully_replicated()

    def test_sum_tagged_golden(self):
        """SumTagged on a matmul: the contracting factor's operand dims
        tile and the result becomes a pending #sum — the exact write set
        of propagation's contracting-factor application."""
        tf = _mlp_traced()
        env = ShardingEnv(MESH)
        propagate(tf.function, env)
        point = tag_points(tf.function)[0]  # x @ w1 output
        applied = try_apply_action(tf.function, env,
                                   (actions_mod.SUM_TAGGED, 0, 0, "model"))
        assert applied
        x, w1 = point.source.operands
        assert env.sharding(x).spec() == "[{}, {model}]"
        assert env.sharding(w1).spec() == "[{model}, {}]"
        assert env.sharding(point.source.results[0]).spec() == \
            "[{}, {}] sum{model}"
        propagate(tf.function, env)
        # The pending sum defers through the (linear) tag.
        assert env.sharding(point.value).spec() == "[{}, {}] sum{model}"

    def test_sum_tagged_self_contraction_is_illegal_not_a_crash(self):
        """A reduce factor referencing one value at two dims (x @ x) can
        never be tiled: the action is illegal — and the full default-space
        search over such a function runs to completion."""
        tf = trace(lambda x: x @ x, ShapeDtype((8, 8)))
        env = ShardingEnv(Mesh({"d": 2}))
        assert not try_apply_action(tf.function, env,
                                    (actions_mod.SUM_TAGGED, 0, 0, "d"))
        assert env.sharding(tf.function.params[0]).is_fully_replicated()
        result = mcts_search(tf.function, ShardingEnv(Mesh({"d": 2})),
                             ["d"], device=TPU_V3, budget=200,
                             rollout_depth=3, seed=0)
        # budget rollouts + the baseline evaluation, none aborted
        assert result.evaluations + result.cache_hits == 201

    def test_sum_tagged_illegal_when_axis_used(self):
        tf = _mlp_traced()
        env = ShardingEnv(MESH)
        point = tag_points(tf.function)[0]
        x = point.source.operands[0]
        env.set_sharding(x, env.sharding(x).with_tile(1, "model"))
        assert not try_apply_action(tf.function, env,
                                    (actions_mod.SUM_TAGGED, 0, 0, "model"))

    def test_candidate_actions_cover_tag_kinds_and_order(self):
        tf = _ensemble_traced()
        env = ShardingEnv(MESH)
        actions = candidate_actions(tf.function, env, ["batch", "model"], 12)
        kinds = {action[0] for action in actions}
        assert kinds == {actions_mod.TILE_INPUT, actions_mod.TILE_TAGGED,
                         actions_mod.SUM_TAGGED}
        # Documented total order: all input actions first.
        first_tagged = next(i for i, a in enumerate(actions) if a[0] != 0)
        assert all(a[0] == 0 for a in actions[:first_tagged])
        # Within one tag point and axis: TileTagged (dims ascending)
        # before SumTagged (factors ascending).
        assert len(actions) == len(set(actions))

    def test_max_tag_points_caps_enumeration(self):
        tf = _ensemble_traced()
        env = ShardingEnv(MESH)
        wide = candidate_actions(tf.function, env, ["batch"], 12,
                                 max_tag_points=16)
        narrow = candidate_actions(tf.function, env, ["batch"], 12,
                                   max_tag_points=1)
        assert len({a[1] for a in narrow if a[0] != 0}) <= 1
        assert len(narrow) < len(wide)


class TestWidenedSpaceEquivalence:
    """Search == reference and serial == process over the widened action
    space."""

    KWARGS = dict(device=TPU_V3, budget=16, rollout_depth=3, max_inputs=12,
                  seed=0)

    def test_search_matches_reference_on_widened_space(self):
        tf = _ensemble_traced()
        result = mcts_search(tf.function, ShardingEnv(MESH),
                             ["batch", "model"], **self.KWARGS)
        assert result.cost == reference_cost(tf.function, MESH,
                                             result.actions, TPU_V3)
        # The winner must exercise the widened space for this pin to mean
        # anything.
        assert any(a[0] != 0 for a in result.actions)

    @pytest.mark.parametrize("backend", ["batched", "process"])
    def test_backends_match_serial_on_widened_space(self, backend):
        tf = _ensemble_traced()
        serial = mcts_search(tf.function, ShardingEnv(MESH),
                             ["batch", "model"], backend="serial",
                             **self.KWARGS)
        other = mcts_search(tf.function, ShardingEnv(MESH),
                            ["batch", "model"], backend=backend, workers=2,
                            **self.KWARGS)
        assert other.actions == serial.actions
        assert other.cost == serial.cost


class TestFixedSeedPins:
    def test_tag_actions_reachable_and_strictly_better(self):
        """The acceptance pin: on the interior-bottleneck ensemble a
        mid-function action is in the winning set and prices to the
        reference.  (Its other half — strictly below the
        input-tilings-only space's best — went with that space.)"""
        tf = _ensemble_traced()
        tagged = mcts_search(tf.function, ShardingEnv(MESH),
                             ["batch", "model"], device=TPU_V3, budget=32,
                             rollout_depth=3, max_inputs=12, seed=0)
        assert any(a[0] != 0 for a in tagged.actions)
        assert tagged.cost == reference_cost(tf.function, MESH,
                                             tagged.actions, TPU_V3)

    def test_winner_replays_onto_the_real_env(self):
        """run_automatic_partition applies the tag-action winner to the
        caller's env: the realized shardings include the mid-function
        decision (interior K tiled, inputs untouched)."""
        from repro.auto.search import run_automatic_partition

        tf = _ensemble_traced()
        env = ShardingEnv(MESH)
        results = []
        applied = run_automatic_partition(
            tf.function, env, ["batch", "model"], device=TPU_V3, budget=32,
            rollout_depth=3, max_inputs=12, seed=0, result_sink=results,
        )
        assert applied == len(results[0].actions)
        point_shardings = [
            env.sharding(p.value) for p in tag_points(tf.function)
        ]
        assert any(not s.is_fully_replicated() for s in point_shardings)


class TestTreeReuse:
    def test_other_seed_never_reports_worse_than_the_log(self, tmp_path):
        tf = _ensemble_traced()
        kwargs = dict(device=TPU_V3, budget=24, rollout_depth=3,
                      max_inputs=12, cache_dir=str(tmp_path))
        best = float("inf")
        for seed in (0, 1, 2):
            run = mcts_search(tf.function, ShardingEnv(MESH),
                              ["batch", "model"], seed=seed, **kwargs)
            assert run.cost <= best
            assert (run.warm_cache_hits > 0) == (seed > 0)
            best = run.cost

    def test_axes_restricted_warm_call_never_adopts_foreign_axes(
            self, tmp_path):
        """The fingerprint ignores the searched axes, so a warm call over
        a subset of axes shares the log with the wider call — its
        incumbent must still only use axes the caller listed."""
        tf = _ensemble_traced()
        kwargs = dict(device=TPU_V3, budget=24, rollout_depth=3,
                      max_inputs=12, seed=0, cache_dir=str(tmp_path))
        wide = mcts_search(tf.function, ShardingEnv(MESH),
                           ["batch", "model"], **kwargs)
        assert any(a[3] == "model" for a in wide.actions)
        narrow = mcts_search(tf.function, ShardingEnv(MESH), ["batch"],
                             **kwargs)
        assert all(a[3] == "batch" for a in narrow.actions)

    def test_legacy_3tuple_records_are_skipped_on_load(self, tmp_path):
        """PR-4-era cost records (3-tuple input actions) lived only in logs
        named by the retired exact fingerprint, which no program opens any
        more.  Met anyway, such a line is malformed: skipped (with the
        mid-file corruption warning) so it can neither poison the
        incumbent tie-break nor the 4-way action unpack."""
        import json

        from repro.auto.cache import TranspositionTable

        path = str(tmp_path / "tt.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"k": [[0, 0, "B"]], "c": 0.5}) + "\n")
            handle.write(
                json.dumps({"k": [[0, 0, 0, "B"], [1, 2, 1, "M"]],
                            "c": 0.25}) + "\n")
        with pytest.warns(RuntimeWarning, match="corrupt mid-file"):
            table = TranspositionTable(path)
        assert len(table) == 1
        assert table.peek(((0, 0, 0, "B"),)) is None
        assert table.best_entry() == (((0, 0, 0, "B"), (1, 2, 1, "M")), 0.25)

    def test_stacked_tags_deduped_in_candidates(self):
        """A manual tag over an auto tag marks the same computation: only
        one point's actions are enumerated (propagation-identical twins
        would waste budget)."""
        def f(x, w):
            return ops.tag(x @ w, "act")  # stacked over the auto tag

        tf = trace(f, ShapeDtype((8, 16)), ShapeDtype((16, 16)))
        assert len(tag_points(tf.function)) == 2  # auto + manual
        actions = candidate_actions(tf.function, ShardingEnv(MESH),
                                    ["batch"], 8)
        tagged_indices = {a[1] for a in actions if a[0] != 0}
        assert len(tagged_indices) == 1  # one point per computation
        assert len(actions) == len(set(actions))

    def test_stacked_tags_on_params_deduped_too(self):
        """Source-less markers (tags over a function parameter) dedupe on
        the same underlying-value rule."""
        def f(x, w):
            return ops.tag(ops.tag(x, "a"), "b") @ w

        tf = trace(f, ShapeDtype((8, 16)), ShapeDtype((16, 16)),
                   tag_points=False)
        points = tag_points(tf.function)
        assert len(points) == 2 and all(p.source is None for p in points)
        assert points[0].root is points[1].root is tf.function.params[0]
        actions = candidate_actions(tf.function, ShardingEnv(MESH),
                                    ["batch"], 8)
        assert len({a[1] for a in actions if a[0] != 0}) == 1

    def test_scan_carries_each_keep_their_tag_point(self):
        """Multi-result ops: every scan carry's tag point has a distinct
        root, so all of them stay independently tillable mid-function."""
        def f(x):
            def body(step, a, b):
                return [a + x, b * 2.0]

            return ops.scan(body, [ops.zeros((8, 4)), ops.zeros((8, 4))],
                            trip_count=3)

        tf = trace(f, ShapeDtype((8, 4)))
        scan_points = [p for p in tag_points(tf.function)
                       if p.source is not None and p.source.opcode == "scan"]
        assert len(scan_points) == 2
        actions = candidate_actions(tf.function, ShardingEnv(MESH),
                                    ["batch"], 8)
        tagged_indices = {a[1] for a in actions if a[0] == 1}
        assert {p.index for p in scan_points} <= tagged_indices

    def test_compact_then_flush_never_double_counts(self, tmp_path):
        """compact() drains the pending queues: a flush right after must
        not re-append records the compaction already wrote."""
        from repro.auto.cache import TranspositionTable

        path = str(tmp_path / "tt.jsonl")
        table = TranspositionTable(path)
        table.store(((0, 0, 0, "batch"),), 2.0)
        table.store_probes({(0, 0, 0, "batch"): "d1"})
        table.compact()
        table.flush()  # nothing left to append
        with open(path) as handle:
            assert len(handle.readlines()) == 2
        reloaded = TranspositionTable(path)
        assert reloaded.warm_probes() == {(0, 0, 0, "batch"): "d1"}
        assert reloaded.peek(((0, 0, 0, "batch"),)) == 2.0
