"""Automatic partitioning and baseline (GSPMD-like, PartIR-st) tests."""

import numpy as np
import pytest

from repro import AutomaticPartition, ManualPartition, Mesh, ShapeDtype, trace
from repro.core import ShardingEnv
from repro.auto.evaluator import candidate_actions
from repro.auto.search import mcts_search
from repro.baselines import SingleTactic, gspmd_partition
from repro.sim import TPU_V3, DeviceSpec, estimate
from repro.spmd import count_collectives, lower
from repro.trace import ops

# A device so small that replication does not fit: forces the search to
# shard (toy shapes otherwise make replication optimal).
TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)


def _mlp_traced(batch=32, width=64):
    def f(state, x):
        h = ops.relu(x @ state["w1"])
        return ops.reduce_sum(h @ state["w2"])

    return trace(
        f,
        {"w1": ShapeDtype((width, width)), "w2": ShapeDtype((width, width))},
        ShapeDtype((batch, width)),
    )


class TestAutomaticPartition:
    def test_candidate_actions_respect_divisibility(self):
        tf = _mlp_traced(batch=30)  # 30 % 4 != 0 on batch axis
        env = ShardingEnv(Mesh({"batch": 4}))
        actions = candidate_actions(tf.function, env, ["batch"])
        assert all(
            tf.function.params[i].type.shape[d] % 4 == 0
            for kind, i, d, _ in actions if kind == 0
        )

    def test_search_beats_or_matches_replication_under_memory_pressure(self):
        tf = _mlp_traced()
        env = ShardingEnv(Mesh({"batch": 4}))
        result = mcts_search(tf.function, env, ["batch"],
                             device=TINY_DEVICE, budget=16, seed=0)
        assert result.evaluations > 1
        # Under the tiny device the replicated program exceeds HBM, so the
        # search must have found sharding actions.
        assert result.actions

    def test_tactic_composes_with_manual(self):
        tf = _mlp_traced()
        mesh = Mesh({"batch": 4, "model": 2})
        env = ShardingEnv(mesh)
        ManualPartition({"1": 0}, axis="batch").apply(tf.function, env)
        AutomaticPartition(
            ["model"], {"budget": 6, "device": TINY_DEVICE}
        ).apply(tf.function, env)
        # The earlier manual decision is never undone (the auto tactic may
        # deepen the tiling, but batch stays the outer axis on dim 0):
        sharding = env.sharding(tf.function.params[2])
        assert sharding.dim_axes[0][0] == "batch"

    def test_repeated_axis_searches_what_the_single_axis_searches(self):
        """Naming an axis twice used to double the action space: every
        duplicate was a second untried child in the tree and a second
        probe in the condenser, which kept both copies."""
        traced = trace(lambda w, x: ops.reduce_sum(x @ w),
                       ShapeDtype((16, 16)), ShapeDtype((8, 16)))
        mesh = Mesh({"d": 2, "m": 2})
        once, twice = (
            mcts_search(traced.function, ShardingEnv(mesh), axes,
                        device=TINY_DEVICE, budget=12, seed=3)
            for axes in (["d"], ["d", "d"]))
        assert twice.candidates_total == once.candidates_total == 9
        assert twice.candidates_kept == once.candidates_kept
        assert twice.actions == once.actions
        assert twice.cost == once.cost
        assert twice.evaluations == once.evaluations
        searches = []
        for axes in (["d"], ["d", "d"], ["d", "m", "d"]):
            tactic = AutomaticPartition(
                axes, {"budget": 12, "seed": 3, "device": TINY_DEVICE})
            tactic.apply(traced.function, ShardingEnv(mesh))
            searches.append((tactic.axes, tactic.last_search))
        assert [axes for axes, _ in searches] == [["d"], ["d"], ["d", "m"]]
        for field in ("candidates_total", "actions", "cost"):
            assert (getattr(searches[1][1], field)
                    == getattr(searches[0][1], field)
                    == getattr(once, field)), field

    def test_search_is_deterministic_for_a_seed(self):
        tf = _mlp_traced()
        env = ShardingEnv(Mesh({"batch": 4}))
        r1 = mcts_search(tf.function, env, ["batch"], device=TINY_DEVICE,
                         budget=8, seed=7)
        r2 = mcts_search(tf.function, env, ["batch"], device=TINY_DEVICE,
                         budget=8, seed=7)
        assert r1.actions == r2.actions
        assert r1.cost == r2.cost


class TestGspmdBaseline:
    def test_resolves_conflicts_instead_of_blocking(self):
        def f(x, w):
            return ops.dot_general(x, w, ((1,), (0,)))

        tf = trace(f, ShapeDtype((32, 16)), ShapeDtype((16, 8)))
        mesh = Mesh({"B": 4})
        env = gspmd_partition(
            tf.function, mesh, {"0": (0, "B"), "1": (1, "B")}
        )
        # PartIR would block; GSPMD picks a side, so the output is sharded.
        out_sharding = env.sharding(tf.function.results[0])
        assert not out_sharding.is_fully_replicated()
        assert env.conflicts()  # the race was recorded

    def test_internal_constraints_steer_resolution(self):
        def f(x, w):
            h = ops.tag(x @ w, "activation")
            return ops.dot_general(h, w, ((1,), (0,)))

        tf = trace(f, ShapeDtype((32, 16)), ShapeDtype((16, 16)))
        mesh = Mesh({"B": 4})
        with_c = gspmd_partition(
            tf.function, mesh, {"0": (0, "B")},
            internal_constraints={"activation": (0, "B")},
            use_internal_constraints=True,
        )
        without_c = gspmd_partition(
            tf.function, mesh, {"0": (0, "B")},
            internal_constraints={"activation": (0, "B")},
            use_internal_constraints=False,
        )
        tag_value = [op for op in tf.function.ops
                     if op.opcode == "tag"][0].results[0]
        assert with_c.sharding(tag_value).dim_axes == (("B",), ())


class TestSingleTactic:
    def test_amalgamation_blocks_propagation(self):
        """PartIR-st: BP and Z3 actions issued together conflict at the
        matmuls, leaving activations replicated (higher memory) — the
        Figure 7 OOM mechanism."""
        def f(state, x):
            h = x @ state["w1"]
            return ops.reduce_sum(h @ state["w2"])

        tf = trace(
            f,
            {"w1": ShapeDtype((16, 16)), "w2": ShapeDtype((16, 16))},
            ShapeDtype((32, 16)),
        )
        mesh = Mesh({"batch": 4})
        BP = ManualPartition({"1": 0}, axis="batch")
        # Shard the weights' *output* dims so the amalgamated actions create
        # a genuine two-factor race at the matmuls.
        Z3 = ManualPartition({"0": 1}, axis="batch")

        env_inc = ShardingEnv(mesh)
        BP.apply(tf.function, env_inc)
        Z3.apply(tf.function, env_inc)
        env_st = ShardingEnv(mesh)
        SingleTactic([BP, Z3]).apply(tf.function, env_st)

        def peak(env):
            lowered = lower(tf.function, env)
            return estimate(lowered, TPU_V3).peak_memory_bytes

        assert env_st.conflicts()
        assert peak(env_st) > peak(env_inc)
