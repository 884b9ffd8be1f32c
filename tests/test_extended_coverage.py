"""Extended coverage: Appendix B multi-axis/deep-tiling scenarios, the
loop-nest view, cost-model formulas, scan capture analysis, and fusion
edge cases."""

import numpy as np
import pytest

from repro.ir import FunctionBuilder, dtypes, evaluate_function, verify_function
from repro.mesh import Mesh
from repro.core import ShardingEnv, render_loop_view, tile
from repro.core.propagate import propagate
from repro.runtime import MeshExecutor
from repro.sim import TPU_V3, costmodel, estimate
from repro.spmd import count_collectives, lower
from repro.trace import ShapeDtype, ops, trace
from oracle import reference_fuse
from tests.conftest import build_matmul_chain, random_args


class TestAppendixBMultiAxis:
    """Appendix B: multi-axis analysis and deep tiling."""

    def test_deep_tiling_nests_axes_on_one_dim(self, rng):
        """Tiling an already-tiled dim nests the new axis innermost and the
        partitioned program still computes the right answer."""
        function, (x, w1, w2, x1, x2) = build_matmul_chain()
        mesh = Mesh({"a": 2, "b": 2})
        env = ShardingEnv(mesh)
        tile(env, x, 0, "a")
        propagate(function, env)
        tile(env, x, 0, "b")  # deep tiling: b nests inside a
        propagate(function, env)
        assert env.sharding(x).dim_axes[0] == ("a", "b")
        lowered = lower(function, env)
        assert lowered.function.params[0].type.shape == (64, 8)
        args = random_args(function, rng)
        expected, = evaluate_function(function, args)
        actual, = MeshExecutor(lowered)(*args)
        np.testing.assert_allclose(actual, expected, atol=1e-3, rtol=1e-3)

    def test_multi_axis_reduction_nest(self, rng):
        """Contractions over dims tiled on different axes produce a nested
        #sum context (one all_reduce over both axes after fusion)."""
        b = FunctionBuilder()
        x = b.param((8, 16), name="x")
        y = b.param((16, 4), name="y")
        out = b.emit1("dot_general", [x, y],
                      {"lhs_contract": (1,), "rhs_contract": (0,)})
        function = b.ret(out)
        mesh = Mesh({"a": 2, "b": 2})
        env = ShardingEnv(mesh)
        tile(env, x, 1, "a")
        propagate(function, env)
        tile(env, x, 1, "b")
        propagate(function, env)
        sharding = env.sharding(out)
        assert sharding.sum_axes == frozenset({"a", "b"})
        lowered = lower(function, env)
        args = random_args(function, rng)
        expected, = evaluate_function(function, args)
        actual, = MeshExecutor(lowered)(*args)
        np.testing.assert_allclose(actual, expected, atol=1e-3, rtol=1e-3)

    def test_propagation_through_loop_nests(self):
        """The Appendix B.1.1 example: evidence must be found under nested
        contexts (our encoding makes this direct: the sharding record *is*
        the nest)."""
        function, (x, w1, w2, x1, x2) = build_matmul_chain()
        mesh = Mesh({"a": 4, "b": 2})
        env = ShardingEnv(mesh)
        tile(env, x, 0, "a")
        tile(env, x, 1, "b")  # contracting dim of the first matmul
        propagate(function, env)
        # Inference must tile w1's contracting dim on b under the a-nest.
        assert env.sharding(w1).dim_axes[0] == ("b",)
        assert "b" in env.sharding(x1).sum_axes
        assert env.sharding(x1).dim_axes[0] == ("a",)


class TestLoopView:
    def test_renders_paper_listing_shape(self):
        function, (x, w1, w2, x1, x2) = build_matmul_chain()
        mesh = Mesh({"B": 4, "M": 2})
        env = ShardingEnv(mesh)
        tile(env, x, 0, "B")
        propagate(function, env)
        text = render_loop_view(function, env)
        assert 'loop "B" [#tile<0>] (%rB: range<4>)' in text
        assert "slice 0 %x[%rB]" in text
        assert text.count("loop") == 1  # both matmuls fused in one nest

    def test_replicated_function_has_no_loops(self):
        function, _ = build_matmul_chain()
        env = ShardingEnv(Mesh({"B": 4}))
        text = render_loop_view(function, env)
        assert "loop" not in text

    def test_sum_context_rendered(self):
        b = FunctionBuilder()
        x = b.param((8, 16), name="x")
        y = b.param((16, 4), name="y")
        out = b.emit1("dot_general", [x, y],
                      {"lhs_contract": (1,), "rhs_contract": (0,)})
        function = b.ret(out)
        env = ShardingEnv(Mesh({"M": 2}))
        tile(env, x, 1, "M")
        propagate(function, env)
        text = render_loop_view(function, env)
        assert "#sum" in text


class TestCostModelFormulas:
    def _single_collective(self, opcode, attrs, shape=(64, 64)):
        b = FunctionBuilder()
        x = b.param(shape, name="x")
        out = b.emit1(opcode, [x], attrs)
        return b.ret(out)

    def test_all_reduce_ring_cost(self):
        mesh = Mesh({"a": 4})
        function = self._single_collective(
            "all_reduce", {"axes": ("a",), "kind": "add",
                           "sizes": {"a": 4}})
        from repro.spmd.lower import LoweredModule
        from repro.core import Sharding

        lowered = LoweredModule(function, mesh,
                                [Sharding.replicated(2)],
                                [Sharding.replicated(2)])
        est = estimate(lowered, TPU_V3)
        nbytes = 64 * 64 * 4
        expected = 2.0 * nbytes * 3 / 4
        assert est.comm_bytes == pytest.approx(expected)

    def test_all_slice_is_free(self):
        mesh = Mesh({"a": 4})
        function = self._single_collective(
            "all_slice",
            {"dims": (("a",), ()), "sizes": {"a": 4},
             "operand_dims": ((), ()), "result_dims": (("a",), ())})
        from repro.spmd.lower import LoweredModule
        from repro.core import Sharding

        lowered = LoweredModule(function, mesh,
                                [Sharding.replicated(2)],
                                [Sharding.replicated(2)])
        est = estimate(lowered, TPU_V3)
        assert est.comm_bytes == 0.0

    def test_overlap_vs_sequential(self, paper_mesh):
        function, values = build_matmul_chain()
        env = ShardingEnv(paper_mesh)
        tile(env, values[0], 0, "B")
        propagate(function, env)
        tile(env, values[1], 1, "M")
        propagate(function, env)
        lowered = lower(function, env)
        est = estimate(lowered, TPU_V3)
        assert est.comm_s > 0 and est.compute_s > 0
        assert est.runtime_s == max(est.compute_s, est.comm_s)

    def test_scan_scales_cost_by_trip_count(self):
        def loop(x, w):
            def body(i, carry):
                return [ops.dot_general(carry, w, ((1,), (0,)))]

            return ops.scan(body, [x], trip_count=10)

        tf = trace(loop, ShapeDtype((8, 16)), ShapeDtype((16, 16)))
        env = ShardingEnv(Mesh({"M": 2}))
        lowered = lower(tf.function, env)
        est = estimate(lowered, TPU_V3)
        single_flops = 2 * 8 * 16 * 16
        assert est.local_flops == pytest.approx(10 * single_flops)


class TestScanCaptures:
    def test_captured_params_become_invariants(self):
        def loop(x, w):
            def body(i, carry):
                return [ops.tanh(carry @ w)]  # w captured from outside

            return ops.scan(body, [x], trip_count=3)

        tf = trace(loop, ShapeDtype((4, 8)), ShapeDtype((8, 8)))
        verify_function(tf.function)
        scan_op = [op for op in tf.function.ops if op.opcode == "scan"][0]
        assert scan_op.attrs["num_carries"] == 1
        assert len(scan_op.operands) == 2  # carry + captured w
        assert len(scan_op.results) == 1

    def test_captured_index_math_executes(self, rng):
        def loop(x):
            def body(i, carry):
                step = ops.convert(i, dtypes.f32)
                return [carry + step]

            return ops.scan(body, [x], trip_count=4)

        tf = trace(loop, ShapeDtype((3,)))
        x = rng.randn(3).astype(np.float32)
        out, = evaluate_function(tf.function, [x])
        np.testing.assert_allclose(out, x + 0 + 1 + 2 + 3, rtol=1e-5)

    def test_sharded_invariant_reconciled_at_entry(self, rng):
        def loop(x, w):
            def body(i, carry):
                return [carry @ w]

            return ops.scan(body, [x], trip_count=2)

        tf = trace(loop, ShapeDtype((8, 16)), ShapeDtype((16, 16)))
        mesh = Mesh({"B": 2})
        env = ShardingEnv(mesh)
        tile(env, tf.function.params[0], 0, "B")
        propagate(tf.function, env)
        lowered = lower(tf.function, env)
        args = random_args(tf.function, rng)
        expected, = evaluate_function(tf.function, args)
        actual, = MeshExecutor(lowered)(*args)
        np.testing.assert_allclose(actual, expected, atol=1e-3, rtol=1e-3)


class TestFusionEdgeCases:
    """Section 6's fusion on hand-built programs, checked on the reference
    ``oracle.reference_fuse`` (the residual and multi-use cases), and on
    ``lower``'s own chains inside a scan body."""

    def test_partial_reduce_scatter_keeps_residual_ar(self):
        """Slicing over a subset of the reduced axes leaves an all_reduce
        over the remainder (Section 6's partial fusion)."""
        b = FunctionBuilder()
        x = b.param((8, 4), name="x")
        ar = b.emit1("all_reduce", [x],
                     {"axes": ("a", "b"), "kind": "add",
                      "sizes": {"a": 2, "b": 2}})
        sl = b.emit1("all_slice", [ar],
                     {"dims": (("a",), ()), "sizes": {"a": 2},
                      "operand_dims": ((), ()),
                      "result_dims": (("a",), ())})
        function = b.ret(sl)
        fused = reference_fuse(function)
        counts = count_collectives(fused)
        assert counts.reduce_scatter == 1
        assert counts.all_reduce == 1  # residual over "b"

    def test_no_fusion_when_reduce_result_multiply_used(self):
        b = FunctionBuilder()
        x = b.param((8, 4), name="x")
        ar = b.emit1("all_reduce", [x],
                     {"axes": ("a",), "kind": "add", "sizes": {"a": 2}})
        sl = b.emit1("all_slice", [ar],
                     {"dims": (("a",), ()), "sizes": {"a": 2},
                      "operand_dims": ((), ()),
                      "result_dims": (("a",), ())})
        keep = b.emit1("neg", [ar])  # second use of the all_reduce
        function = b.ret(sl, keep)
        fused = reference_fuse(function)
        counts = count_collectives(fused)
        assert counts.all_reduce == 1
        assert counts.reduce_scatter == 0

    def test_fusion_inside_scan_body(self):
        def loop(x, m):
            def body(i, carry):
                partial = ops.dot_general(x, x, ((0,), (0,)))
                return [carry * 0.9 + partial * 0.1]

            return ops.scan(body, [m], trip_count=2)

        tf = trace(loop, ShapeDtype((8, 16)), ShapeDtype((16, 16)))
        mesh = Mesh({"B": 2})
        env = ShardingEnv(mesh)
        tile(env, tf.function.params[0], 0, "B")  # x batch-tiled
        propagate(tf.function, env)
        tile(env, tf.function.params[1], 0, "B")  # m sharded
        propagate(tf.function, env)
        lowered = lower(tf.function, env)
        counts = count_collectives(lowered.function)
        # The partial-sum inside the body is reduce-scattered each step.
        assert counts.reduce_scatter == 2


class TestMetadataFeedback:
    def test_per_tactic_snapshots_are_incremental(self):
        """The paper's key UX claim: the module can be inspected after
        every tactic, and counts only ever grow as tactics are added."""
        from repro import ManualPartition, Mesh as M, partir_jit

        def f(x, w1, w2):
            return ops.dot_general(
                ops.dot_general(x, w1, ((1,), (0,))), w2, ((1,), (0,)))

        tf = trace(f, ShapeDtype((32, 8)), ShapeDtype((8, 16)),
                   ShapeDtype((16, 8)))
        schedule = [
            ManualPartition({"0": 0}, axis="B"),
            ManualPartition({"1": 1}, axis="M"),
            ManualPartition({"1": 0, "2": 1}, axis="B"),
        ]
        _, meta = partir_jit(tf, M({"B": 4, "M": 2}), schedule)
        totals = [r.counts.total for r in meta.reports]
        assert totals == sorted(totals)
        assert meta.reports[0].counts.total == 0      # BP: pure map
        assert meta.reports[1].counts.all_reduce == 1  # MP adds the AR
        assert meta.reports[2].counts.all_gather == 2  # Z3 adds the AGs
