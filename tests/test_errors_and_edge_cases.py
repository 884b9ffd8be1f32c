"""Edge-case and error-path tests across the stack."""

import numpy as np
import pytest

from repro.api import ManualPartition, PipelinePartition
from repro.errors import (
    ExecutionError,
    ShardingError,
    TraceError,
    TypeInferenceError,
)
from repro.ir import (
    FunctionBuilder,
    dtypes,
    evaluate_function,
)
from repro.mesh import Mesh
from repro.core import Sharding, ShardingEnv, tile
from repro.core.propagate import propagate
from repro.spmd import count_collectives, lower
from repro.trace import ShapeDtype, ops, trace
from tests.conftest import build_matmul_chain


class TestMeshEdgeCases:
    def test_single_device_axis(self):
        mesh = Mesh({"a": 1})
        assert mesh.num_devices == 1
        assert list(mesh.device_coords()) == [{"a": 0}]

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError):
            Mesh({})

    def test_zero_size_axis_rejected(self):
        with pytest.raises(ValueError):
            Mesh({"a": 0})

    def test_trivial_axis_partitioning_is_identity(self, rng):
        """Tiling over a size-1 axis changes nothing semantically."""
        from repro.runtime import MeshExecutor
        from tests.conftest import random_args

        function, (x, *_ ) = build_matmul_chain()
        env = ShardingEnv(Mesh({"a": 1}))
        tile(env, x, 0, "a")
        propagate(function, env)
        lowered = lower(function, env)
        args = random_args(function, rng)
        expected, = evaluate_function(function, args)
        actual, = MeshExecutor(lowered)(*args)
        np.testing.assert_allclose(actual, expected, atol=1e-4)


class TestShardingEdgeCases:
    def test_rank0_value_sharding(self):
        s = Sharding.replicated(0)
        assert s.is_fully_replicated()
        assert s.local_shape((), Mesh({"a": 2})) == ()

    def test_pending_scalar_materializes(self):
        """A scalar loss with a pending sum gets an all_reduce at output."""
        b = FunctionBuilder()
        x = b.param((8,), name="x")
        loss = b.emit1("reduce_sum", [x], {"dims": (0,)})
        function = b.ret(loss)
        env = ShardingEnv(Mesh({"B": 4}))
        tile(env, x, 0, "B")
        propagate(function, env)
        assert "B" in env.sharding(loss).sum_axes
        lowered = lower(function, env)
        counts = count_collectives(lowered.function)
        assert counts.all_reduce == 1
        assert lowered.output_shardings[0].is_fully_replicated()

    def test_env_copy_is_independent(self):
        function, (x, *_ ) = build_matmul_chain()
        env = ShardingEnv(Mesh({"B": 4}))
        clone = env.copy()
        tile(env, x, 0, "B")
        assert clone.sharding(x).is_fully_replicated()
        assert not env.sharding(x).is_fully_replicated()

    @staticmethod
    def _loop(x, w):
        def body(i, acc):
            return ((acc @ w) @ w,)
        return ops.fori_loop(0, 4, body, (x,))[0]

    @pytest.mark.parametrize("tactic, shape, named", [
        (ManualPartition({"0": 5}, axis="d"), (8, 4), "'0'"),
        (ManualPartition({"0": -1}, axis="d"), (8, 4), "'0'"),
        (ManualPartition({"0": -1}, axis="d"), (8, 3), "'0'"),
        (PipelinePartition(axis="d", loop_index=-5), (8, 4), "loop index -5"),
    ], ids=["dim-5", "dim-minus-1-divisible", "dim-minus-1-indivisible",
            "loop-index-minus-5"])
    def test_out_of_range_tactic_index_is_a_sharding_error(
            self, tactic, shape, named):
        """A dim or loop index outside its input is rejected by name, not
        raised as an IndexError, read from the end, or skipped because
        the dim it wraps to does not divide."""
        traced = trace(self._loop, ShapeDtype(shape),
                       ShapeDtype((shape[1], shape[1])))
        with pytest.raises(ShardingError) as caught:
            tactic.apply(traced.function, ShardingEnv(Mesh({"d": 2})))
        assert tactic.name in str(caught.value)
        assert named in str(caught.value)


class TestLoweringEdgeCases:
    def test_fully_replicated_lowering_is_identity_shape(self):
        function, _ = build_matmul_chain()
        env = ShardingEnv(Mesh({"B": 4}))
        lowered = lower(function, env)
        assert [p.type.shape for p in lowered.function.params] == [
            p.type.shape for p in function.params
        ]
        assert count_collectives(lowered.function).total == 0

    def test_output_sharded_when_only_output_matters(self):
        """Input replicated, consumer sharded via an internal decision."""
        b = FunctionBuilder()
        x = b.param((16, 8), name="x")
        y = b.emit1("tanh", [x])
        function = b.ret(y)
        env = ShardingEnv(Mesh({"B": 4}))
        tile(env, y, 0, "B")
        propagate(function, env)
        # backward propagation shards the input too:
        assert env.sharding(x).dim_axes == (("B",), ())

    def test_int_inputs_shardable(self, rng):
        """Integer tensors (token ids) shard like float ones."""
        from repro.runtime import MeshExecutor

        def f(table, ids):
            return ops.take(table, ids)

        tf = trace(f, ShapeDtype((8, 4)), ShapeDtype((16,), dtypes.i32))
        env = ShardingEnv(Mesh({"B": 4}))
        tile(env, tf.function.params[1], 0, "B")
        propagate(tf.function, env)
        lowered = lower(tf.function, env)
        table = rng.randn(8, 4).astype(np.float32)
        ids = rng.randint(0, 8, 16).astype(np.int32)
        expected, = evaluate_function(tf.function, [table, ids])
        actual, = MeshExecutor(lowered)(table, ids)
        np.testing.assert_array_equal(actual, expected)

    def test_operand_nests_its_axes_as_the_result_does(self, rng):
        """A pending product ``[{b}, {}] sum{a}`` meets an add whose
        result nests ``a`` outside ``b``; the product must reach the add
        nested the same way, not scattered into ``[{b,a}, {}]``.

        * ``w + x @ w`` with ``x`` tiled ``[{b}, {a}]``: the sum, like
          ``w``, is ``[{a,b}, {}]``.
        * ``x + w @ x`` with ``x`` tiled on ``a`` then ``w`` on ``b``:
          ``x`` ends ``[{a,b}, {}]`` and ``w`` ``[{b}, {a}]``, because the
          add writes ``b`` onto the dot's contracting dim.
        """
        from repro.runtime import MeshExecutor

        matmul = {"lhs_contract": (1,), "rhs_contract": (0,)}

        def program(x_shape, w_shape, x_first):
            b = FunctionBuilder()
            x = b.param(x_shape, name="x")
            w = b.param(w_shape, name="w")
            lhs, rhs, addend = (x, w, w) if x_first else (w, x, x)
            product = b.emit1("dot_general", [lhs, rhs], matmul)
            return b.ret(b.emit1("add", [addend, product])), x, w, product

        function, x, w, product = program((4, 4), (4, 2), True)
        cases = [(function, product, [(x, 1, "a"), (x, 0, "b")],
                  {product: (("b",), ()), w: (("a", "b"), ())})]
        function, x, w, product = program((4, 2), (4, 4), False)
        cases.append((function, product, [(x, 0, "a"), (w, 0, "b")],
                      {product: (("b",), ()), x: (("a", "b"), ()),
                       w: (("b",), ("a",))}))
        for function, product, tiles, layouts in cases:
            env = ShardingEnv(Mesh({"a": 2, "b": 2}))
            for value, dim, axis in tiles:
                tile(env, value, dim, axis)
                propagate(function, env)
            assert {value: env.sharding(value).dim_axes
                    for value in layouts} == layouts
            assert env.sharding(product).sum_axes == {"a"}
            args = [rng.randn(*param.type.shape).astype(np.float32)
                    for param in function.params]
            expected, = evaluate_function(function, args)
            actual, = MeshExecutor(lower(function, env))(*args)
            np.testing.assert_allclose(actual, expected, atol=1e-5)


    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 17(1)(a): a reduce_max over a tiled dim lowers to an "
        "all_reduce of kind add, not max"))
    def test_reduce_max_over_a_tiled_dim_is_a_max(self):
        """``reduce_max`` over dim 0 of an ``(8, 4)`` value tiled on
        ``a``: each device's partial maxima must be combined by a max."""
        from repro.runtime import MeshExecutor

        b = FunctionBuilder()
        x = b.param((8, 4), name="x")
        function = b.ret(b.emit1("reduce_max", [x], {"dims": (0,)}))
        env = ShardingEnv(Mesh({"a": 2, "b": 2}))
        tile(env, x, 0, "a")
        propagate(function, env)
        arg = np.random.default_rng(0).normal(size=(8, 4)).astype(
            np.float32)
        expected, = evaluate_function(function, [arg])
        actual, = MeshExecutor(lower(function, env))(arg)
        np.testing.assert_allclose(actual, expected, atol=1e-5)

class TestModulePrinter:
    def test_scan_region_printed_nested(self):
        def loop(x):
            def body(i, carry):
                return [carry + 1.0]

            return ops.scan(body, [x], trip_count=2)

        tf = trace(loop, ShapeDtype((4,)))
        from repro.ir import print_function

        text = print_function(tf.function)
        assert "scan" in text
        assert "func @body" in text


class TestTracerErrorPaths:
    def test_negative_step_slice_rejected(self):
        with pytest.raises(TraceError):
            trace(lambda x: x[::-1], ShapeDtype((4,)))

    def test_non_traced_return_rejected(self):
        with pytest.raises(TraceError):
            trace(lambda x: 42, ShapeDtype((4,)))

    def test_argument_structure_checked_at_call(self, rng):
        from repro import ManualPartition, partir_jit

        tf = trace(lambda s, x: s["w"] + x, {"w": ShapeDtype((4,))},
                   ShapeDtype((4,)))
        fn, _ = partir_jit(tf, Mesh({"B": 2}),
                           [ManualPartition({"1": 0}, axis="B")])
        with pytest.raises(TraceError):
            fn({"wrong_key": np.zeros(4, np.float32)},
               np.zeros(4, np.float32))


class TestExecutorErrorPaths:
    def test_interpreter_checks_arity_and_shapes(self):
        function, _ = build_matmul_chain()
        with pytest.raises(ExecutionError):
            evaluate_function(function, [np.zeros((2, 2), np.float32)])
        with pytest.raises(ExecutionError):
            evaluate_function(
                function,
                [np.zeros((1, 1), np.float32)] * 3,
            )
