"""PartIR:Core tests: sharding state, TMR factor rules, actions, propagation.

The scenario tests follow the paper section by section: Listings 1-4
(Section 2.4), inference (5.2.2), conflicts and ZeRO prioritisation (5.2.3),
atomic barriers and the transpose example (Section 8).
"""

import pytest

from repro.errors import ShardingError
from repro.ir import FunctionBuilder
from repro.mesh import Mesh
from repro.core import Sharding, ShardingEnv, atomic, rule_for, tile
from repro.core.propagate import propagate
from tests.conftest import build_matmul_chain


class TestSharding:
    def test_axis_used_once_invariant(self):
        s = Sharding.replicated(2).with_tile(0, "a")
        with pytest.raises(ShardingError):
            s.with_tile(1, "a")
        with pytest.raises(ShardingError):
            s.with_sum("a")

    def test_local_shape(self):
        mesh = Mesh({"a": 4, "b": 2})
        s = Sharding.replicated(2).with_tile(0, "a").with_tile(0, "b")
        assert s.local_shape((16, 8), mesh) == (2, 8)

    def test_local_shape_indivisible(self):
        mesh = Mesh({"a": 4})
        s = Sharding.replicated(1).with_tile(0, "a")
        with pytest.raises(ShardingError):
            s.local_shape((6,), mesh)

    def test_spec_format(self):
        s = Sharding.replicated(2).with_tile(0, "B").with_sum("M")
        assert s.spec() == "[{B}, {}] sum{M}"


class TestMesh:
    def test_sizes_and_coords(self):
        mesh = Mesh({"a": 2, "b": 3})
        assert mesh.num_devices == 6
        assert len(list(mesh.device_coords())) == 6
        assert mesh.group_size(["a", "b"]) == 6

    def test_unknown_axis(self):
        with pytest.raises(KeyError):
            Mesh({"a": 2}).size("zzz")


class TestFactorRules:
    def test_dot_general_factors(self, matmul_chain):
        function, (_, _, _, x1, _) = matmul_chain
        op = function.ops[0]
        rule = rule_for(op)
        lhs, _, out = rule.dim_factors
        # batch-free matmul: lhs free, rhs free, one contracting factor.
        assert len(rule.factors) == 3
        reduce_factors = [f for f in rule.factors if f[1]]
        assert len(reduce_factors) == 1
        assert lhs[0] is not None
        assert out[0] == lhs[0]

    def test_elementwise_autogenerated(self):
        b = FunctionBuilder()
        x = b.param((2, 3))
        y = b.param((2, 3))
        op = b.emit("add", [x, y])
        rule = rule_for(op)
        assert len(rule.factors) == 2
        assert all(len(entries) == 3 for entries, _ in rule.factors)

    def test_reshape_merge_ties_leading_dim(self):
        b = FunctionBuilder()
        x = b.param((4, 6))
        op = b.emit("reshape", [x], {"new_shape": (24,)})
        operand, result = rule_for(op).dim_factors
        assert operand[0] == result[0]
        assert operand[1] is None  # inner dim blocked

    def test_reshape_squeeze_skips_degenerate(self):
        b = FunctionBuilder()
        x = b.param((2, 1, 8, 4))
        op = b.emit("reshape", [x], {"new_shape": (2, 8, 4)})
        operand, result = rule_for(op).dim_factors
        assert operand[2] == result[1]

    def test_conv_spatial_dims_blocked(self):
        b = FunctionBuilder()
        x = b.param((2, 3, 8, 8))
        k = b.param((4, 3, 3, 3))
        op = b.emit("conv2d", [x, k], {"stride": 1, "pad": 1})
        image, _, result = rule_for(op).dim_factors
        assert image[2] is None
        assert image[3] is None
        assert result[1] is not None  # out channels

    def test_scatter_add_edge_factor_requires_zeros(self):
        from repro.ir import dtypes
        from repro.trace import ShapeDtype, ops, trace

        def with_zeros(updates, ids):
            return ops.scatter_add(ops.zeros((8, 4)), ids, updates)

        tf = trace(with_zeros, ShapeDtype((16, 4)),
                   ShapeDtype((16,), dtypes.i32))
        scatter = [op for op in tf.function.ops
                   if op.opcode == "scatter_add"][0]
        rule = rule_for(scatter)
        assert any(reduce for _, reduce in rule.factors)

        def with_nonzero(operand, updates, ids):
            return ops.scatter_add(operand, ids, updates)

        tf2 = trace(with_nonzero, ShapeDtype((8, 4)), ShapeDtype((16, 4)),
                    ShapeDtype((16,), dtypes.i32))
        scatter2 = [op for op in tf2.function.ops
                    if op.opcode == "scatter_add"][0]
        assert not any(reduce for _, reduce in rule_for(scatter2).factors)


class TestActions:
    def test_tile_checks_divisibility(self, matmul_chain, paper_mesh):
        function, (x, _, _, _, _) = matmul_chain
        env2 = ShardingEnv(Mesh({"B": 3}))
        with pytest.raises(ShardingError):
            tile(env2, x, 0, "B")  # 256 % 3 != 0

    def test_tile_rejects_axis_reuse(self, matmul_chain, paper_mesh):
        function, (x, _, _, _, _) = matmul_chain
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        with pytest.raises(ShardingError):
            tile(env, x, 1, "B")

    def test_atomic_blocks_tile(self, matmul_chain, paper_mesh):
        function, (x, _, _, _, _) = matmul_chain
        env = ShardingEnv(paper_mesh)
        atomic(env, x, "B")
        with pytest.raises(ShardingError):
            tile(env, x, 0, "B")


class TestPropagation:
    """The paper's worked examples."""

    def test_listing2_batch_parallelism(self, matmul_chain, paper_mesh):
        function, (x, w1, w2, x1, x2) = matmul_chain
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        assert env.sharding(x1).dim_axes == (("B",), ())
        assert env.sharding(x2).dim_axes == (("B",), ())
        assert env.sharding(w1).is_fully_replicated()
        assert env.sharding(w2).is_fully_replicated()

    def test_listing3_inference_shards_w2(self, matmul_chain, paper_mesh):
        """Value-tiling w1's output dim infers w2's input dim (5.2.2)."""
        function, (x, w1, w2, x1, x2) = matmul_chain
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        tile(env, w1, 1, "M")
        propagate(function, env)
        assert env.sharding(w2).dim_axes == (("M",), ())
        assert env.sharding(x1).dim_axes == (("B",), ("M",))
        assert "M" in env.sharding(x2).sum_axes

    def test_listing4_zero3_blocked_from_spreading(self, matmul_chain,
                                                   paper_mesh):
        """Z3 parameter tiles must not re-shard activations (5.2.3)."""
        function, (x, w1, w2, x1, x2) = matmul_chain
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        tile(env, w1, 1, "M")
        propagate(function, env)
        tile(env, w1, 0, "B")
        tile(env, w2, 1, "B")
        propagate(function, env)
        assert env.sharding(w1).dim_axes == (("B",), ("M",))
        assert env.sharding(w2).dim_axes == (("M",), ("B",))
        # activations unchanged: B appears once on dim 0 only.
        assert env.sharding(x2).dim_axes == (("B",), ())

    def test_conflict_two_extendable_factors_blocks(self, paper_mesh):
        """Both operands tiled on different factors -> recorded conflict."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        w = b.param((16, 8), name="w")
        out = b.emit1("dot_general", [x, w],
                      {"lhs_contract": (1,), "rhs_contract": (0,)})
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        # Tile both sides at once (the amalgamated-tactic failure mode).
        tile(env, x, 0, "B")
        tile(env, w, 1, "B")
        propagate(function, env)
        assert env.sharding(out).is_fully_replicated()
        assert env.conflicts()

    def test_incremental_ordering_resolves_conflict(self, paper_mesh):
        """Same actions, sequenced -> batch wins, no result conflict."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        w = b.param((16, 8), name="w")
        out = b.emit1("dot_general", [x, w],
                      {"lhs_contract": (1,), "rhs_contract": (0,)})
        function = b.ret(out)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        tile(env, w, 1, "B")
        propagate(function, env)
        assert env.sharding(out).dim_axes == (("B",), ())

    def test_transpose_conflict_and_atomic_resolution(self, paper_mesh):
        """Section 8's matrix-diagonalisation example."""
        b = FunctionBuilder()
        x = b.param((256, 256), name="x")
        tx = b.emit1("transpose", [x], {"permutation": (1, 0)})
        y = b.emit1("dot_general", [x, tx],
                    {"lhs_contract": (1,), "rhs_contract": (0,)})
        function = b.ret(y)

        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "M")
        propagate(function, env)
        # Without atomic: transpose propagates, matmul conflicts.
        assert env.conflicts()

        b2 = FunctionBuilder()
        x2 = b2.param((256, 256), name="x")
        tx2 = b2.emit1("transpose", [x2], {"permutation": (1, 0)})
        y2 = b2.emit1("dot_general", [x2, tx2],
                      {"lhs_contract": (1,), "rhs_contract": (0,)})
        function2 = b2.ret(y2)
        env2 = ShardingEnv(paper_mesh)
        atomic(env2, tx2, "M")
        tile(env2, x2, 0, "M")
        propagate(function2, env2)
        assert env2.sharding(y2).dim_axes == (("M",), ())
        assert not env2.conflicts()

    def test_pending_defers_through_accumulation_only(self, paper_mesh):
        """sum-pending passes through add-of-partials but not mul."""
        b = FunctionBuilder()
        x = b.param((32, 16), name="x")
        w = b.param((16, 8), name="w")
        g1 = b.emit1("dot_general", [x, w],
                     {"lhs_contract": (1,), "rhs_contract": (0,)})
        g2 = b.emit1("dot_general", [x, w],
                     {"lhs_contract": (1,), "rhs_contract": (0,)})
        acc = b.emit1("add", [g1, g2])
        sq = b.emit1("mul", [acc, acc])
        function = b.ret(sq)
        env = ShardingEnv(paper_mesh)
        tile(env, x, 1, "M")
        propagate(function, env)
        assert "M" in env.sharding(acc).sum_axes
        assert "M" not in env.sharding(sq).sum_axes

    def test_multi_axis_tiling(self):
        function, (x, w1, w2, x1, x2) = build_matmul_chain(m=256)
        mesh = Mesh({"a": 2, "b": 2})
        env = ShardingEnv(mesh)
        tile(env, x, 0, "a")
        propagate(function, env)
        tile(env, x, 0, "b")
        propagate(function, env)
        assert env.sharding(x2).dim_axes == (("a", "b"), ())

    def test_propagation_is_idempotent(self, matmul_chain, paper_mesh):
        function, (x, _, _, _, x2) = matmul_chain
        env = ShardingEnv(paper_mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        snapshot = {v: env.sharding(v).spec() for v in function.index.values}
        propagate(function, env)
        assert snapshot == {
            v: env.sharding(v).spec() for v in function.index.values
        }
