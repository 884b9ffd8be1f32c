"""Simulated-mesh executor tests: sharding arithmetic and collectives."""

import numpy as np
import pytest

from repro import ManualPartition, ShapeDtype, partir_jit, trace
from repro.errors import ExecutionError
from repro.ir import FunctionBuilder
from repro.mesh import Mesh
from repro.core import Sharding, ShardingEnv, tile
from repro.core.propagate import propagate
from repro.runtime import MeshExecutor, shard_array, unshard_arrays
from repro.spmd import lower
from tests.conftest import build_matmul_chain, random_args


class TestShardUnshard:
    def test_roundtrip_single_axis(self, rng):
        mesh = Mesh({"a": 4})
        x = rng.randn(8, 6).astype(np.float32)
        dim_axes = (("a",), ())
        coords = list(mesh.device_coords())
        chunks = [shard_array(x, dim_axes, mesh, c) for c in coords]
        assert chunks[0].shape == (2, 6)
        back = unshard_arrays(chunks, dim_axes, mesh, coords)
        np.testing.assert_array_equal(back, x)

    def test_roundtrip_multi_axis_same_dim(self, rng):
        mesh = Mesh({"a": 2, "b": 2})
        x = rng.randn(8, 4).astype(np.float32)
        dim_axes = (("a", "b"), ())
        coords = list(mesh.device_coords())
        chunks = [shard_array(x, dim_axes, mesh, c) for c in coords]
        back = unshard_arrays(chunks, dim_axes, mesh, coords)
        np.testing.assert_array_equal(back, x)

    def test_nesting_order_matters(self, rng):
        mesh = Mesh({"a": 2, "b": 2})
        x = np.arange(8, dtype=np.float32)
        c = {"a": 1, "b": 0}
        outer_a = shard_array(x, (("a", "b"),), mesh, c)
        outer_b = shard_array(x, (("b", "a"),), mesh, c)
        np.testing.assert_array_equal(outer_a, [4, 5])
        np.testing.assert_array_equal(outer_b, [2, 3])

    def test_replica_disagreement_detected(self, rng):
        mesh = Mesh({"a": 2})
        coords = list(mesh.device_coords())
        chunks = [np.zeros((2,), np.float32), np.ones((2,), np.float32)]
        with pytest.raises(ExecutionError):
            unshard_arrays(chunks, ((),), mesh, coords)

    def test_scalar_chunk_keeps_rank_zero(self):
        mesh = Mesh({"a": 2})
        chunk = shard_array(np.array(2.5, np.float32), (), mesh, {"a": 1})
        assert chunk.shape == ()

    def test_indivisible_rejected(self):
        mesh = Mesh({"a": 4})
        with pytest.raises(ExecutionError):
            shard_array(np.zeros(6), (("a",),), mesh, {"a": 0})


def _lower_chain(actions, mesh):
    function, values = build_matmul_chain()
    named = {"x": values[0], "w1": values[1], "w2": values[2]}
    env = ShardingEnv(mesh)
    for name, dim, axis in actions:
        tile(env, named[name], dim, axis)
        propagate(function, env)
    lowered = lower(function, env)
    return function, lowered


class TestExecutor:
    def test_wrong_arg_count(self, paper_mesh):
        function, lowered = _lower_chain([("x", 0, "B")], paper_mesh)
        with pytest.raises(ExecutionError):
            MeshExecutor(lowered)(np.zeros((256, 8), np.float32))

    def test_all_reduce_max_kind(self):
        b = FunctionBuilder()
        x = b.param((4,), name="x")
        out = b.emit1("all_reduce", [x],
                      {"axes": ("a",), "kind": "max", "sizes": {"a": 2}})
        function = b.ret(out)
        from repro.spmd.lower import LoweredModule

        mesh = Mesh({"a": 2})
        lowered = LoweredModule(
            function, mesh,
            [Sharding.replicated(1).with_tile(0, "a")],
            [Sharding.replicated(1)],
        )
        # input is global (8,), sharded into (4,)-chunks; max across devices.
        arg = np.array([1, 5, 2, 3, 9, 0, 4, 4], dtype=np.float32)
        out_val, = MeshExecutor(lowered)(arg)
        np.testing.assert_array_equal(out_val, np.maximum(arg[:4], arg[4:]))

    def test_scalar_parameter_runs(self, rng):
        """A 0-d parameter is handed to every device as a 0-d chunk, with
        or without a tactic tiling its neighbour; a 0-d result comes
        back 0-d."""
        traced = trace(lambda s, x: (x * s, s * s), ShapeDtype(()),
                       ShapeDtype((8, 4)))
        x = rng.randn(8, 4).astype(np.float32)
        for tactics in ([], [ManualPartition({"1": 0}, axis="a")]):
            run, _ = partir_jit(traced, Mesh({"a": 2, "b": 2}), tactics)
            scaled, squared = run(np.float32(3.0), x)
            np.testing.assert_allclose(scaled, x * 3.0, rtol=1e-6)
            assert squared.shape == () and squared == 9.0

    def test_memory_tracking_smaller_when_sharded(self, paper_mesh, rng):
        function, lowered_bp = _lower_chain([("x", 0, "B")], paper_mesh)
        _, lowered_none = _lower_chain([], paper_mesh)
        args = random_args(function, rng)
        ex_bp = MeshExecutor(lowered_bp)
        ex_none = MeshExecutor(lowered_none)
        ex_bp(*args)
        ex_none(*args)
        assert ex_bp.measured_peak_bytes < ex_none.measured_peak_bytes
