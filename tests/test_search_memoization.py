"""Search regression tests for the memoized, incremental MCTS.

The transposition table and the incremental prefix-env reuse are pure
speedups: a table hit returns what recomputing would, and every cost the
search reports is the from-scratch reference pipeline's
(``oracle.reference_cost``: a fresh env, materialized lowering).
"""

import pytest

from repro import ManualPartition, Mesh, ShapeDtype, trace
from repro.core import ShardingEnv
from oracle import full_sweep, reference_cost
from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.search import mcts_search
from repro.auto.tree import canonical_key
from repro.core.actions import try_apply_action
from repro.sim import DeviceSpec
from repro.trace import ops

from conftest import build_matmul_chain

# Small enough that replication blows HBM, so the search must shard.
TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)

MESH = Mesh({"B": 4, "M": 2})


def _mlp_traced(batch=32, width=64):
    def f(state, x):
        h = ops.relu(x @ state["w1"])
        return ops.reduce_sum(h @ state["w2"])

    return trace(
        f,
        {"w1": ShapeDtype((width, width)), "w2": ShapeDtype((width, width))},
        ShapeDtype((batch, width)),
    )


def _search(function, **kwargs):
    env = ShardingEnv(MESH)
    defaults = dict(device=TINY_DEVICE, budget=16, rollout_depth=3, seed=11)
    defaults.update(kwargs)
    return mcts_search(function, env, ["B", "M"], **defaults)


class TestMemoizationIsExact:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_result_with_and_without_transposition_table(self, seed):
        """A table hit returns exactly what scoring the key without the
        table (``compute``) does — for the search's winner and for every
        single-action set."""
        function, _ = build_matmul_chain()
        evaluator = Evaluator(function, ShardingEnv(MESH), TINY_DEVICE)
        result = _search(function, seed=seed)
        keys = list(dict.fromkeys(
            [canonical_key(result.actions)] + [
                (action,) for action in candidate_actions(
                    function, evaluator.root, ["B", "M"])]))
        first = [evaluator.evaluate(key) for key in keys]  # fills the table
        assert first[0] == result.cost
        assert evaluator.cache_hits == 0
        assert [evaluator.evaluate(key) for key in keys] == first
        assert evaluator.cache_hits == len(keys)
        assert [evaluator.compute(key) for key in keys] == first

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_result_with_and_without_incremental_engine(self, seed):
        """The search's winner costs the same priced on a fresh env,
        without the undo log, the delta memo or the differential
        estimator."""
        function, _ = build_matmul_chain()
        inc = _search(function, seed=seed)
        assert inc.cost == reference_cost(function, MESH, inc.actions,
                                          TINY_DEVICE)


class TestCaches:
    def test_transposition_table_hits_on_quickstart(self):
        """The quickstart example (paper Listing 1): with a single-axis
        action space the budget exceeds the number of distinct small action
        sets, so rollouts must revisit canonical sets and the table hits."""
        function, _ = build_matmul_chain()
        env = ShardingEnv(MESH)
        result = mcts_search(function, env, ["B"], device=TINY_DEVICE,
                             budget=48, rollout_depth=1, seed=11)
        assert result.cache_hits > 0
        # Hits replace evaluations: every rollout is one or the other
        # (plus the baseline and the witness-minimization probes).
        assert result.evaluations + result.cache_hits >= 48 + 1
        assert result.evaluations < 48

    def test_incremental_reduces_propagation_work(self):
        """Scoring every single-action set on one evaluator (root fixed
        point included) visits under half the ops that building each
        set's env from scratch with whole-function sweeps (root fixed
        point included) does."""
        tf = _mlp_traced()
        evaluator = Evaluator(tf.function, ShardingEnv(MESH), TINY_DEVICE)
        keys = [(action,) for action in candidate_actions(
            tf.function, evaluator.root, ["B", "M"])]
        for key in keys:
            evaluator.evaluate(key)
        scratch_ops = 0
        for (action,) in keys:
            env = ShardingEnv(MESH)
            full_sweep(tf.function, env)
            try_apply_action(tf.function, env, action)
            full_sweep(tf.function, env)
            scratch_ops += env.stats.ops_processed
        assert evaluator.root.stats.ops_processed * 2 <= scratch_ops

    def test_search_counters_are_populated(self):
        tf = _mlp_traced()
        result = _search(tf.function)
        assert result.evaluations > 1
        assert result.propagate_calls > 0
        assert result.ops_processed > 0


class TestCanonicalization:
    def test_canonical_sorts_and_dedupes(self):
        actions = [(2, 0, "B"), (0, 1, "M"), (2, 0, "B"), (0, 0, "B")]
        assert canonical_key(actions) == (
            (0, 0, "B"), (0, 1, "M"), (2, 0, "B"))

    def test_best_actions_are_canonical(self):
        tf = _mlp_traced()
        result = _search(tf.function)
        assert result.actions == list(canonical_key(result.actions))

    def test_search_respects_atomic_pins(self):
        """An axis pinned replicated by the atomic action is never tiled by
        the search — neither enumerated nor applied."""
        from repro.core import atomic

        tf = _mlp_traced()
        env = ShardingEnv(MESH)
        pinned = tf.function.params[1]
        atomic(env, pinned, "M")
        assert all(
            not (kind == 0 and index == 1)
            for kind, index, _, a in
            candidate_actions(tf.function, env, ["M"]) if a == "M"
        )
        assert not try_apply_action(tf.function, env, (0, 1, 0, "M"))
        assert env.sharding(pinned).spec() == "[{}, {}] pin{M}"

    def test_composes_with_manual_tactics(self):
        """Auto after manual still never undoes the manual decision."""
        from repro.api import AutomaticPartition

        tf = _mlp_traced()
        mesh = Mesh({"batch": 4, "model": 2})
        env = ShardingEnv(mesh)
        ManualPartition({"1": 0}, axis="batch").apply(
            tf.function, env
        )
        AutomaticPartition(
            ["model"], {"budget": 6, "device": TINY_DEVICE}
        ).apply(tf.function, env)
        sharding = env.sharding(tf.function.params[2])
        assert sharding.dim_axes[0][0] == "batch"
