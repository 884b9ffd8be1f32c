"""The search estimator vs the materializing cost pipeline.

The chains that check it live in ``test_chains.py`` (checks 1 and the
end-of-chain fresh estimator there: every ``CostEstimate`` field exact on
every model family, IT32's scan body included).  The chain ids below are
entry points into those chains: each runs the chain of its family that
covers it, once per session.  The estimator's own reuse contracts are
tested here directly.
"""

import random

import pytest

from oracle import assert_estimates_identical, reference_estimate
from repro.core.sharding import ShardingEnv
from repro.models.schedules import edge_sharding, zero2, zero3
from repro.sim import TPU_V3, costmodel
from test_chains import FAMILIES, MESH, SEEDS, run_chain


@pytest.mark.parametrize("seed", range(17))
def test_transformer_chain_streaming_identical(seed):
    run_chain("transformer", seed % len(SEEDS))


@pytest.mark.parametrize("seed", range(17))
def test_gns_chain_streaming_identical(seed):
    run_chain("gns", seed % len(SEEDS))


@pytest.mark.parametrize("seed", range(17))
def test_unet_chain_streaming_identical(seed):
    run_chain("unet", seed % len(SEEDS))


def test_scan_body_streaming_identical():
    run_chain("it32_scan", 0)


def _gns_env(rng):
    function = FAMILIES["gns"].function
    pool = FAMILIES["gns"].pool(rng.choice([zero2, zero3]))
    env = ShardingEnv(MESH)
    for tactic in rng.sample(pool, rng.randint(1, len(pool))):
        tactic.apply(function, env)
    return env


class TestEstimatorMemoization:
    def test_plan_reuse_across_envs_is_exact(self):
        """A StreamingEstimator re-bound to one env after another matches
        the materialized pipeline on each one."""
        function = FAMILIES["gns"].function
        estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
        for seed in range(4):
            env = _gns_env(random.Random(7000 + seed))
            materialized = reference_estimate(function, env, TPU_V3)
            streamed = estimator.estimate_incremental(env)
            assert_estimates_identical(streamed, materialized, seed)

    def test_identical_env_reuses_every_plan(self):
        function = FAMILIES["gns"].function
        env = ShardingEnv(MESH)
        edge_sharding().apply(function, env)
        estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
        first = estimator.estimate_incremental(env)
        planned = estimator.ops_planned
        reused = estimator.ops_reused
        second = estimator.estimate_incremental(env)  # forced rebuild
        assert estimator.ops_planned == planned  # nothing re-planned
        assert estimator.ops_reused - reused >= planned
        assert_estimates_identical(first, second)
