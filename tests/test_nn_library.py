"""Tests for the functional NN library (repro.nn)."""

import numpy as np
import pytest

from repro.ir import evaluate_function
from repro.nn import (
    adam_state_spec,
    adam_update,
    init_from_spec,
    layer_norm,
    linear,
    linear_spec,
    mlp,
    rms_norm,
    softmax_cross_entropy,
)
from repro.trace import ShapeDtype, ops, pytree, trace
from repro.ir import dtypes


class TestLayers:
    def test_linear_matches_numpy(self, rng):
        spec = linear_spec(4, 8)
        tf = trace(lambda p, x: linear(p, x), spec, ShapeDtype((2, 4)))
        params = init_from_spec(spec, rng)
        x = rng.randn(2, 4).astype(np.float32)
        out, = evaluate_function(tf.function, tf.flatten_args(params, x))
        np.testing.assert_allclose(out, x @ params["w"] + params["b"],
                                   rtol=1e-5)

    def test_rms_norm_unit_scale(self, rng):
        tf = trace(lambda s, x: rms_norm(s, x), ShapeDtype((8,)),
                   ShapeDtype((4, 8)))
        x = rng.randn(4, 8).astype(np.float32)
        scale = np.ones(8, np.float32)
        out, = evaluate_function(tf.function, [scale, x])
        expected = x / np.sqrt((x ** 2).mean(-1, keepdims=True) + 1e-6)
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_layer_norm_zero_mean_unit_var(self, rng):
        tf = trace(lambda s, b, x: layer_norm(s, b, x), ShapeDtype((8,)),
                   ShapeDtype((8,)), ShapeDtype((4, 8)))
        x = rng.randn(4, 8).astype(np.float32) * 3 + 5
        out, = evaluate_function(
            tf.function, [np.ones(8, np.float32), np.zeros(8, np.float32), x]
        )
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(-1), 1.0, atol=1e-2)

    def test_mlp_depth(self, rng):
        specs = [linear_spec(4, 8), linear_spec(8, 8), linear_spec(8, 2)]
        tf = trace(lambda p, x: mlp(p, x), specs, ShapeDtype((3, 4)))
        params = init_from_spec(specs, rng)
        x = rng.randn(3, 4).astype(np.float32)
        out, = evaluate_function(tf.function, tf.flatten_args(params, x))
        h = np.maximum(x @ params[0]["w"] + params[0]["b"], 0)
        h = np.maximum(h @ params[1]["w"] + params[1]["b"], 0)
        expected = h @ params[2]["w"] + params[2]["b"]
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_softmax_cross_entropy_uniform(self):
        """Uniform logits -> loss == log(V)."""
        tf = trace(
            lambda logits, labels: softmax_cross_entropy(logits, labels),
            ShapeDtype((2, 3, 8)), ShapeDtype((2, 3), dtypes.i32),
        )
        logits = np.zeros((2, 3, 8), np.float32)
        labels = np.zeros((2, 3), np.int32)
        out, = evaluate_function(tf.function, [logits, labels])
        np.testing.assert_allclose(out, np.log(8), rtol=1e-5)

    def test_init_shapes_and_dtypes(self, rng):
        spec = {"w": ShapeDtype((4, 8)), "ids": ShapeDtype((3,), dtypes.i32),
                "scale": ShapeDtype((8,))}
        params = init_from_spec(spec, rng)
        assert params["w"].shape == (4, 8)
        assert params["ids"].dtype == np.int32
        np.testing.assert_array_equal(params["scale"], np.ones(8))


class TestAdam:
    def test_state_spec_mirrors_params(self):
        spec = {"a": ShapeDtype((2, 2)), "b": [ShapeDtype((3,))]}
        state = adam_state_spec(spec)
        assert pytree.flatten(state["m"])[1] == pytree.flatten(spec)[1]

    def test_update_moves_against_gradient(self, rng):
        spec = {"w": ShapeDtype((4,))}

        def step(params, grads, m, v):
            new_params, new_state = adam_update(
                params, grads, {"m": m, "v": v}, learning_rate=0.1
            )
            return new_params["w"]

        tf = trace(step, spec, spec, {"w": ShapeDtype((4,))},
                   {"w": ShapeDtype((4,))})
        w = rng.randn(4).astype(np.float32)
        g = np.array([1.0, -1.0, 2.0, 0.0], np.float32)
        out, = evaluate_function(
            tf.function,
            tf.flatten_args({"w": w}, {"w": g}, {"w": np.zeros(4, np.float32)},
                            {"w": np.zeros(4, np.float32)}),
        )
        moved = out - w
        # Update direction opposes the gradient sign; zero grad -> no move.
        assert moved[0] < 0 and moved[1] > 0 and moved[2] < 0
        assert abs(moved[3]) < 1e-6

    def test_zero2_communication_pattern_from_adam(self):
        """The Z2 pattern falls out of Adam's structure: sharded moments,
        pinned params -> RS on the gradient, AG on the update."""
        from repro.api import ManualPartition, REPLICATED
        from repro.core import ShardingEnv
        from repro.mesh import Mesh
        from repro.spmd import count_collectives, lower
        from repro.trace import value_and_grad

        def train(state, x):
            def loss_fn(p):
                return ops.reduce_sum(ops.tanh(x @ p["w"]))

            loss, grads = value_and_grad(loss_fn)(state["params"])
            new_params, new_opt = adam_update(state["params"], grads,
                                              state["opt_state"])
            return {"params": new_params, "opt_state": new_opt,
                    "loss": loss}

        pspec = {"w": ShapeDtype((8, 8))}
        tf = trace(train,
                   {"params": pspec, "opt_state": adam_state_spec(pspec)},
                   ShapeDtype((16, 8)))
        env = ShardingEnv(Mesh({"batch": 4}))
        ManualPartition({"1": 0}, axis="batch").apply(tf.function, env)
        ManualPartition({"opt_state": 0, "params": REPLICATED},
                        axis="batch").apply(tf.function, env)
        lowered = lower(tf.function, env)
        counts = count_collectives(lowered.function)
        assert counts.reduce_scatter == 1   # the gradient
        assert counts.all_gather == 1       # the updated parameter
        assert counts.all_reduce == 1       # the loss
