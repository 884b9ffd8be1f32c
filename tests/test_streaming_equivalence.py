"""Search-estimator-vs-materialized cost evaluation equivalence.

For seeded-random tactic chains over the transformer, GNS and UNet training
steps (51 chains), a fresh ``StreamingEstimator``'s whole-function refresh
(every op priced from its lowering plan and recorded reconcile chains, no
IR materialized) must produce a :class:`CostEstimate` whose every field
(runtime, compute and per-collective comm seconds, FLOPs, comm bytes, peak
live memory) is *exactly* equal to the materializing
``lower -> fuse_collectives -> estimate`` pipeline, and hence
bit-identical ``search_objective`` values.  A scan-body case (IT32's
decode loop) covers region pricing.
"""

import random

import pytest

from repro.api import ManualPartition
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import gns as gns_mod
from repro.models import transformer
from repro.models import unet as unet_mod
from repro.models.schedules import (
    bp,
    edge_sharding,
    emb,
    megatron_mp,
    transformer_schedules,
    zero2,
    zero3,
)
from oracle import assert_estimates_identical, reference_estimate
from repro.sim import TPU_V3, costmodel

MESH = Mesh({"batch": 4, "model": 2})

@pytest.fixture(scope="module")
def tiny_transformer():
    cfg = transformer.t32(num_layers=2, d_model=64, num_heads=4, d_head=16,
                          ffw_dim=128, vocab=128, seq_len=16, batch=8)
    return transformer.trace_training_step(cfg)


@pytest.fixture(scope="module")
def tiny_gns():
    cfg = gns_mod.gns(num_nodes=64, num_edges=256, feature_dim=8,
                      latent_dim=16, mlp_layers=2, message_steps=2, out_dim=8)
    return gns_mod.trace_training_step(cfg)


@pytest.fixture(scope="module")
def tiny_unet():
    cfg = unet_mod.unet(num_down=2, num_up=2, channels=16, in_channels=4,
                        image_size=16, batch=8, attention_heads=4,
                        temb_dim=16)
    return unet_mod.trace_training_step(cfg)


def _transformer_chain(rng):
    zero = rng.choice([zero2, zero3])  # never both: Z3 after Z2 is illegal
    pool = [
        bp({"tokens": 0, "targets": 0}),
        megatron_mp(),
        zero(),
        emb(),
        ManualPartition({"qkv_w": 2}, axis="model"),
    ]
    return rng.sample(pool, rng.randint(1, len(pool)))


def _gns_chain(rng):
    zero = rng.choice([zero2, zero3])
    pool = [
        edge_sharding(),
        bp({"nodes": 0}),
        zero(all_tensors=True),
        ManualPartition({"edges": 0}, axis="batch"),
    ]
    return rng.sample(pool, rng.randint(1, len(pool)))


def _unet_chain(rng):
    zero = rng.choice([zero2, zero3])
    pool = [
        bp({"image": 0, "timestep": 0, "noise": 0}),
        zero(all_tensors=True),
        ManualPartition({"image": 0}, axis="batch"),
    ]
    return rng.sample(pool, rng.randint(1, len(pool)))


def _env_for_chain(traced, chain):
    env = ShardingEnv(MESH)
    for tactic in chain:
        tactic.apply(traced.function, env, incremental=True)
    return env


def _assert_streaming_identical(function, env, device=TPU_V3):
    materialized = reference_estimate(function, env, device)
    streamed = costmodel.StreamingEstimator(
        function, env.mesh, device).estimate_incremental(env)
    assert_estimates_identical(streamed, materialized)
    assert (costmodel.search_objective(streamed, device)
            == costmodel.search_objective(materialized, device))


@pytest.mark.parametrize("seed", range(17))
def test_transformer_chain_streaming_identical(tiny_transformer, seed):
    chain = _transformer_chain(random.Random(seed))
    env = _env_for_chain(tiny_transformer, chain)
    _assert_streaming_identical(tiny_transformer.function, env)


@pytest.mark.parametrize("seed", range(17))
def test_gns_chain_streaming_identical(tiny_gns, seed):
    chain = _gns_chain(random.Random(2000 + seed))
    env = _env_for_chain(tiny_gns, chain)
    _assert_streaming_identical(tiny_gns.function, env)


@pytest.mark.parametrize("seed", range(17))
def test_unet_chain_streaming_identical(tiny_unet, seed):
    chain = _unet_chain(random.Random(3000 + seed))
    env = _env_for_chain(tiny_unet, chain)
    _assert_streaming_identical(tiny_unet.function, env)


def test_scan_body_streaming_identical():
    """IT32's decode loop: scan-body costs (x trip_count) and
    the body's transient memory spike go through the streaming path too."""
    cfg = transformer.it32(num_layers=2, d_model=64, num_heads=4, d_head=16,
                           ffw_dim=128, vocab=128, batch=8, decode_steps=4)
    traced = transformer.trace_inference(cfg)
    schedule = transformer_schedules(cfg, training=False)["BP+MP"]
    env = _env_for_chain(traced, schedule)
    _assert_streaming_identical(traced.function, env)


class TestEstimatorMemoization:
    def test_plan_reuse_across_envs_is_exact(self, tiny_gns):
        """A StreamingEstimator re-bound to one env after another matches
        the materialized pipeline on each one."""
        function = tiny_gns.function
        estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
        for seed in range(4):
            chain = _gns_chain(random.Random(7000 + seed))
            env = _env_for_chain(tiny_gns, chain)
            materialized = reference_estimate(function, env, TPU_V3)
            streamed = estimator.estimate_incremental(env)
            assert_estimates_identical(streamed, materialized, seed)

    def test_identical_env_reuses_every_plan(self, tiny_gns):
        function = tiny_gns.function
        env = _env_for_chain(tiny_gns, [edge_sharding()])
        estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
        first = estimator.estimate_incremental(env)
        planned = estimator.ops_planned
        reused = estimator.ops_reused
        second = estimator.estimate_incremental(env)  # forced rebuild
        assert estimator.ops_planned == planned  # nothing re-planned
        assert estimator.ops_reused - reused >= planned
        assert_estimates_identical(first, second)
