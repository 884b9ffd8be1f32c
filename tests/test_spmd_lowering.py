"""SPMD lowering and fusion tests: collective insertion, localization,
reduce_scatter / all_to_all fusion (``lower``'s, and the multi-use and
cancellation cases of the reference ``oracle.reference_fuse``), counting."""

import numpy as np
import pytest

from repro.ir import FunctionBuilder, evaluate_function
from repro.mesh import Mesh
from repro.core import ShardingEnv, tile
from repro.core.propagate import propagate
from repro.runtime import MeshExecutor
from repro.spmd import count_collectives, lower
from oracle import reference_fuse
from tests.conftest import build_matmul_chain, random_args


def ops_of(function, opcode):
    return [op for op in function.walk() if op.opcode == opcode]


class TestLoweringListing4:
    """The paper's Listing 4: device-local FSDP matmul chain."""

    @pytest.fixture
    def lowered(self, paper_mesh):
        function, (x, w1, w2, _, _) = build_matmul_chain()
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        tile(env, w1, 1, "M")
        propagate(function, env)
        tile(env, w1, 0, "B")
        tile(env, w2, 1, "B")
        propagate(function, env)
        out = lower(function, env)
        return out

    def test_device_local_param_shapes(self, lowered):
        shapes = [p.type.shape for p in lowered.function.params]
        assert shapes == [(64, 8), (2, 8), (8, 2)]

    def test_collectives_match_paper(self, lowered):
        counts = count_collectives(lowered.function)
        assert counts.all_gather == 2   # both params gathered over B
        assert counts.all_reduce == 1   # contraction over M
        assert counts.reduce_scatter == 0

    def test_output_is_batch_sharded(self, lowered):
        assert lowered.output_shardings[0].dim_axes == (("B",), ())


class TestReconciliation:
    def test_pending_materializes_once_per_value(self, paper_mesh):
        """Two full-value uses of a partial sum share one all_reduce."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        w = b.param((16, 8), name="w")
        partial = b.emit1("dot_general", [x, w],
                          {"lhs_contract": (1,), "rhs_contract": (0,)})
        use1 = b.emit1("mul", [partial, partial])
        use2 = b.emit1("exp", [partial])
        out = b.emit1("add", [use1, use2])
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 1, "M")
        propagate(function, env)
        lowered = lower(function, env)
        assert count_collectives(lowered.function).all_reduce == 1

    def test_gathers_not_cached_across_uses(self, paper_mesh):
        """FSDP-style: each use of a sharded param gathers separately."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        w = b.param((16, 8), name="w")
        y1 = b.emit1("dot_general", [x, w],
                     {"lhs_contract": (1,), "rhs_contract": (0,)})
        y2 = b.emit1("dot_general", [x, w],
                     {"lhs_contract": (1,), "rhs_contract": (0,)})
        out = b.emit1("add", [y1, y2])
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        tile(env, w, 0, "B")  # FSDP-shard the weight
        propagate(function, env)
        lowered = lower(function, env)
        assert count_collectives(lowered.function).all_gather == 2

    def test_sharded_constant_computed_then_sliced(self, paper_mesh):
        b = FunctionBuilder()
        x = b.param((32, 8), name="x")
        const = b.emit1("constant", [],
                        {"value": np.ones((32, 8), np.float32)})
        out = b.emit1("add", [x, const])
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        lowered = lower(function, env)
        slices = ops_of(lowered.function, "all_slice")
        assert slices, "sharded constant must be sliced"
        # and the add runs on local shapes:
        adds = ops_of(lowered.function, "add")
        assert adds[0].results[0].type.shape == (8, 8)

    def test_broadcast_shape_attr_localized(self, paper_mesh):
        b = FunctionBuilder()
        x = b.param((32, 8), name="x")
        scale = b.param((8,), name="s")
        sb = b.emit1("broadcast_in_dim", [scale],
                     {"shape": (32, 8), "broadcast_dimensions": (1,)})
        out = b.emit1("mul", [x, sb])
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        lowered = lower(function, env)
        bcast = ops_of(lowered.function, "broadcast_in_dim")[0]
        assert tuple(bcast.attrs["shape"]) == (8, 8)


class TestFusion:
    def test_ar_slice_fuses_to_reduce_scatter(self, paper_mesh):
        """The ZeRO gradient pattern: AR over B + slice on B -> RS."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        w = b.param((16, 8), name="w")
        m = b.param((16, 16), name="m")
        grad = b.emit1("dot_general", [x, x],
                       {"lhs_contract": (0,), "rhs_contract": (0,)})
        out = b.emit1("add", [grad, m])
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")          # batch tiling -> grad pending on B
        propagate(function, env)
        tile(env, m, 0, "B")          # opt-state sharding
        propagate(function, env)
        lowered = lower(function, env)
        counts = count_collectives(lowered.function)
        assert counts.reduce_scatter == 1
        assert counts.all_reduce == 0

    def test_gather_slice_cancellation(self):
        """all_slice(all_gather(x)) with identical dims disappears under the
        reference fusion (a lowering's chains never emit the pair)."""
        from repro.ir import FunctionBuilder

        b = FunctionBuilder()
        x = b.param((8, 4), name="x")
        g = b.emit1("all_gather", [x], {
            "dims": (("B",), ()), "sizes": {"B": 4},
            "operand_dims": (("B",), ()), "result_dims": ((), ()),
        })
        s = b.emit1("all_slice", [g], {
            "dims": (("B",), ()), "sizes": {"B": 4},
            "operand_dims": ((), ()), "result_dims": (("B",), ()),
        })
        function = b.ret(s)
        fused = reference_fuse(function)
        assert count_collectives(fused).total == 0

    def test_gather_slice_becomes_all_to_all(self, paper_mesh):
        """Resharding a value from dim 1 to dim 0 over the same axis."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        t = b.emit1("tag", [x], {"name": "boundary"})
        out = b.emit1("neg", [t])
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        # x sharded on dim 1; downstream wants dim 0 (forced via the tag).
        env.set_sharding(x, env.sharding(x).with_tile(1, "B"))
        env.set_sharding(
            t, env.sharding(t).with_tile(0, "B")
        )
        env.set_sharding(out, env.sharding(out).with_tile(0, "B"))
        lowered = lower(function, env)
        counts = count_collectives(lowered.function)
        assert counts.all_to_all == 1
        assert counts.all_gather == 0


class TestCounting:
    def test_scan_multiplies_by_trip_count(self):
        from repro.ir import dtypes
        from repro.trace import ShapeDtype, ops, trace

        def loop(x, w):
            def body(i, carry):
                y = ops.dot_general(carry, w, ((1,), (0,)))
                return [y]

            return ops.scan(body, [x], trip_count=5)

        tf = trace(loop, ShapeDtype((8, 16)), ShapeDtype((16, 16)))
        mesh = Mesh({"M": 2})
        env = ShardingEnv(mesh)
        tile(env, tf.function.params[1], 0, "M")
        propagate(tf.function, env)
        lowered = lower(tf.function, env)
        dynamic = count_collectives(lowered.function)
        static = count_collectives(lowered.function, static=True)
        assert dynamic.total == 5 * static.total
        # The body's contraction materialises as a reduce_scatter (the
        # pending sum is sliced back into the carry's layout).
        assert static.total >= 1


class TestEndToEndNumerics:
    @pytest.mark.parametrize("actions", [
        [("x", 0, "B")],
        [("x", 0, "B"), ("w1", 1, "M")],
        [("x", 0, "B"), ("w1", 1, "M"), ("w1", 0, "B"), ("w2", 1, "B")],
        [("w1", 1, "M")],
        [("x", 0, "B"), ("x", 1, "M")],
    ])
    def test_partitioned_equals_reference(self, actions, paper_mesh, rng):
        function, values = build_matmul_chain()
        named = {"x": values[0], "w1": values[1], "w2": values[2]}
        env = ShardingEnv(paper_mesh)
        for name, dim, axis in actions:
            tile(env, named[name], dim, axis)
            propagate(function, env)
        lowered = lower(function, env)
        args = random_args(function, rng)
        expected, = evaluate_function(function, args)
        actual, = MeshExecutor(lowered)(*args)
        np.testing.assert_allclose(actual, expected, atol=1e-3, rtol=1e-3)
