"""Model tests: the paper's Table 3 counting rules on scaled-down configs,
plus numeric equivalence of partitioned vs reference training steps."""

import numpy as np
import pytest

from repro.ir import evaluate_function, verify_function
from repro.mesh import Mesh
from repro.core import ShardingEnv
from repro.nn import init_from_spec
from repro.runtime import MeshExecutor
from repro.spmd import count_collectives, lower
from repro.trace import pytree
from repro.models import gns, transformer, unet
from repro.models.schedules import (
    bp,
    edge_sharding,
    megatron_mp,
    transformer_schedules,
    zero2,
    zero3,
)

from oracle import traced

MESH = Mesh({"batch": 4, "model": 2})


def apply_and_count(tf, schedule, mesh=MESH):
    env = ShardingEnv(mesh)
    for tactic in schedule:
        tactic.apply(tf.function, env)
    lowered = lower(tf.function, env)
    return count_collectives(lowered.function), lowered, env


@pytest.fixture(scope="module")
def tiny_t():
    return transformer.tiny(), traced("transformer.tiny")


class TestTransformerCounts:
    """Table 3's counting rules on a 2-layer config (P = 19)."""

    def test_param_tensor_count(self, tiny_t):
        cfg, tf = tiny_t
        assert cfg.num_param_tensors == 19
        params = [n for n in tf.function.input_names if "/params/" in n]
        assert len(params) == 19

    def test_bp_one_ar_per_gradient_plus_loss(self, tiny_t):
        cfg, tf = tiny_t
        counts, _, _ = apply_and_count(tf, transformer_schedules(cfg)["BP"])
        assert counts.all_reduce == cfg.num_param_tensors + 1
        assert counts.all_gather == counts.reduce_scatter == 0

    def test_megatron_adds_four_ar_per_layer(self, tiny_t):
        cfg, tf = tiny_t
        bp_counts, _, _ = apply_and_count(tf,
                                          transformer_schedules(cfg)["BP"])
        mp_counts, _, _ = apply_and_count(
            tf, transformer_schedules(cfg)["BP+MP"]
        )
        assert mp_counts.all_reduce == (
            bp_counts.all_reduce + 4 * cfg.num_layers
        )

    def test_zero2_reduce_scatters_sharded_grads(self, tiny_t):
        cfg, tf = tiny_t
        counts, _, env = apply_and_count(
            tf, transformer_schedules(cfg)["BP+MP+Z2"]
        )
        sharded = 4 * cfg.num_layers // cfg.num_layers  # 4 per layer
        expected = 4 * cfg.num_layers + 1  # + embedding
        assert counts.reduce_scatter == expected
        assert counts.all_gather == expected  # one gather per updated param

    def test_zero3_gathers_params_in_fwd_and_bwd(self, tiny_t):
        cfg, tf = tiny_t
        z2, _, _ = apply_and_count(tf,
                                   transformer_schedules(cfg)["BP+MP+Z2"])
        z3, _, _ = apply_and_count(tf,
                                   transformer_schedules(cfg)["BP+MP+Z3"])
        sharded = 4 * cfg.num_layers + 1
        # Z3: 2 gathers per block tensor + 3 for the tied embedding
        # (embed, unembed, backward) = 2*sharded + 1.
        assert z3.all_gather == 2 * sharded + 1
        assert z3.reduce_scatter == z2.reduce_scatter

    def test_t32_matches_paper_exactly(self):
        """The headline Table 3 rows, scaled: with 32 layers these formulas
        give 290 / 418 / (129, 289, 129) / (259, 289, 129) exactly."""
        cfg = transformer.tiny(num_layers=3)
        tf = transformer.trace_training_step(cfg)
        p = cfg.num_param_tensors
        counts, _, _ = apply_and_count(tf, transformer_schedules(cfg)["BP"])
        assert counts.all_reduce == p + 1
        counts, _, _ = apply_and_count(tf,
                                       transformer_schedules(cfg)["BP+MP"])
        assert counts.all_reduce == p + 1 + 4 * cfg.num_layers


class TestTransformerNumerics:
    def test_partitioned_training_step_equals_reference(self, rng):
        cfg = transformer.tiny(num_layers=1)
        tf = transformer.trace_training_step(cfg)
        verify_function(tf.function)
        _, lowered, _ = apply_and_count(
            tf, transformer_schedules(cfg)["BP+MP"]
        )
        pspec = transformer.param_spec(cfg)
        state = {
            "params": init_from_spec(pspec, rng),
            "opt_state": {
                "m": init_from_spec(pspec, rng),
                "v": pytree.tree_map(
                    lambda s: np.abs(rng.randn(*s.shape).astype(np.float32)),
                    pspec,
                ),
            },
        }
        batch = {
            "tokens": rng.randint(0, cfg.vocab,
                                  (cfg.batch, cfg.seq_len)).astype(np.int32),
            "targets": rng.randint(0, cfg.vocab,
                                   (cfg.batch, cfg.seq_len)).astype(np.int32),
        }
        flat = tf.flatten_args(state, batch)
        expected = evaluate_function(tf.function, flat)
        actual = MeshExecutor(lowered)(*flat)
        for e, a in zip(expected, actual):
            np.testing.assert_allclose(a, e, atol=2e-3, rtol=2e-2)


class TestInferenceServingLoop:
    def test_it32_counts_scale_with_decode_steps(self):
        cfg = transformer.it32(num_layers=2, d_model=16, num_heads=4,
                               d_head=4, ffw_dim=32, vocab=32, batch=8,
                               decode_steps=4)
        tf = transformer.trace_inference(cfg)
        verify_function(tf.function)
        schedules = transformer_schedules(cfg, training=False)
        counts_bp, _, _ = apply_and_count(tf, schedules["BP"])
        assert counts_bp.total == 0  # inference BP: pure map
        counts_mp, _, _ = apply_and_count(tf, schedules["BP+MP"])
        # 2 AR per layer per decode step (Megatron in the serving loop).
        assert counts_mp.all_reduce == 2 * cfg.num_layers * cfg.decode_steps

    def test_serving_loop_partitioned_numerics(self, rng):
        cfg = transformer.it32(num_layers=1, d_model=16, num_heads=4,
                               d_head=4, ffw_dim=32, vocab=32, batch=4,
                               decode_steps=3)
        tf = transformer.trace_inference(cfg)
        schedules = transformer_schedules(cfg, training=False)
        _, lowered, _ = apply_and_count(tf, schedules["BP+MP"],
                                        Mesh({"batch": 2, "model": 2}))
        state = {"params": init_from_spec(transformer.param_spec(cfg), rng)}
        batch = {"tokens": rng.randint(
            0, cfg.vocab, (cfg.batch, cfg.decode_steps)).astype(np.int32)}
        flat = tf.flatten_args(state, batch)
        expected = evaluate_function(tf.function, flat)
        actual = MeshExecutor(lowered)(*flat)
        for e, a in zip(expected, actual):
            np.testing.assert_allclose(a, e, atol=2e-3, rtol=2e-2)


class TestUNet:
    def test_bp_rule(self):
        cfg = unet.tiny()
        tf = traced("unet.tiny")
        verify_function(tf.function)
        p = unet.num_param_tensors(cfg)
        data = {"image": 0, "timestep": 0, "noise": 0}
        counts, _, _ = apply_and_count(tf, [bp(data)])
        assert counts.all_reduce == p + 1

    def test_z2_converts_all_grads_to_rs(self):
        cfg = unet.tiny()
        tf = traced("unet.tiny")
        p = unet.num_param_tensors(cfg)
        data = {"image": 0, "timestep": 0, "noise": 0}
        counts, _, _ = apply_and_count(
            tf, [bp(data), zero2(all_tensors=True)]
        )
        # Paper UNet BP+Z2: all but the loss AR become reduce_scatters.
        assert counts.all_reduce == 1
        assert counts.reduce_scatter == p
        assert counts.all_gather == p

    def test_z3_gathers_more_than_z2(self):
        cfg = unet.tiny()
        tf = traced("unet.tiny")
        data = {"image": 0, "timestep": 0, "noise": 0}
        z2_counts, _, _ = apply_and_count(
            tf, [bp(data), zero2(all_tensors=True)]
        )
        z3_counts, _, _ = apply_and_count(
            tf, [bp(data), zero3(all_tensors=True)]
        )
        assert z3_counts.all_gather > z2_counts.all_gather

    def test_partitioned_numerics(self, rng):
        cfg = unet.tiny()
        tf = traced("unet.tiny")
        data = {"image": 0, "timestep": 0, "noise": 0}
        _, lowered, _ = apply_and_count(tf, [bp(data)],
                                        Mesh({"batch": 2}))
        pspec = unet.param_spec(cfg)
        state = {
            "params": init_from_spec(pspec, rng),
            "opt_state": {
                "m": init_from_spec(pspec, rng),
                "v": pytree.tree_map(
                    lambda s: np.abs(
                        rng.randn(*s.shape).astype(np.float32)
                    ) + 0.1,
                    pspec,
                ),
            },
        }
        batch = {
            "image": rng.randn(cfg.batch, cfg.in_channels, cfg.image_size,
                               cfg.image_size).astype(np.float32),
            "timestep": rng.randn(cfg.batch,
                                  cfg.temb_dim).astype(np.float32),
            "noise": rng.randn(cfg.batch, cfg.in_channels, cfg.image_size,
                               cfg.image_size).astype(np.float32),
        }
        flat = tf.flatten_args(state, batch)
        expected = evaluate_function(tf.function, flat)
        actual = MeshExecutor(lowered)(*flat)
        for e, a in zip(expected, actual):
            np.testing.assert_allclose(a, e, atol=5e-3, rtol=5e-2)


class TestGNS:
    def test_edge_sharding_structure(self):
        cfg = gns.tiny()
        tf = traced("gns.tiny")
        verify_function(tf.function)
        counts, _, env = apply_and_count(tf, [edge_sharding()],
                                         Mesh({"batch": 4}))
        # Edge sharding never gathers or reshards — only partial-sum ARs.
        assert counts.all_gather == 0
        assert counts.all_to_all == 0
        assert counts.all_reduce > 0
        # Nodes replicated, edges sharded:
        names = dict(zip(tf.function.input_names, tf.function.params))
        assert env.sharding(names["1/edges"]).dim_axes == (("batch",), ())
        assert env.sharding(names["1/nodes"]).is_fully_replicated()

    def test_ar_per_aggregation_and_edge_param(self):
        """One AR per edge->node aggregation per direction per step, plus
        one per edge-MLP parameter gradient (the paper's GNS accounting)."""
        base = gns.tiny(message_steps=1)
        assert gns.tiny().message_steps == 2
        c1, _, _ = apply_and_count(gns.trace_training_step(base),
                                   [edge_sharding()], Mesh({"batch": 4}))
        c2, _, _ = apply_and_count(traced("gns.tiny"), [edge_sharding()],
                                   Mesh({"batch": 4}))
        per_step = c2.all_reduce - c1.all_reduce
        # each extra step: fwd aggregation + 2 bwd gather-grads +
        # edge-MLP weight/bias grads (2 * mlp_layers).
        assert per_step == 3 + 2 * base.mlp_layers

    def test_partitioned_numerics(self, rng):
        cfg = gns.tiny()
        tf = traced("gns.tiny")
        _, lowered, _ = apply_and_count(tf, [edge_sharding()],
                                        Mesh({"batch": 2}))
        pspec = gns.param_spec(cfg)
        state = {
            "params": init_from_spec(pspec, rng),
            "opt_state": {
                "m": init_from_spec(pspec, rng),
                "v": pytree.tree_map(
                    lambda s: np.abs(
                        rng.randn(*s.shape).astype(np.float32)
                    ) + 0.1,
                    pspec,
                ),
            },
        }
        batch = {
            "nodes": rng.randn(cfg.num_nodes,
                               cfg.feature_dim).astype(np.float32),
            "edges": rng.randn(cfg.num_edges,
                               cfg.feature_dim).astype(np.float32),
            "senders": rng.randint(0, cfg.num_nodes,
                                   cfg.num_edges).astype(np.int32),
            "receivers": rng.randint(0, cfg.num_nodes,
                                     cfg.num_edges).astype(np.int32),
            "targets": rng.randn(cfg.num_nodes,
                                 cfg.out_dim).astype(np.float32),
        }
        flat = tf.flatten_args(state, batch)
        expected = evaluate_function(tf.function, flat)
        actual = MeshExecutor(lowered)(*flat)
        for e, a in zip(expected, actual):
            np.testing.assert_allclose(a, e, atol=5e-3, rtol=5e-2)
