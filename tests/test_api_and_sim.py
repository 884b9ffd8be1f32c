"""Schedule API and performance-simulator tests."""

import numpy as np
import pytest

from repro import (
    FIRST_DIVISIBLE_DIM,
    REPLICATED,
    ManualPartition,
    Mesh,
    ShapeDtype,
    partir_jit,
    trace,
)
from repro.api import _name_matches
from repro.errors import ShardingError
from repro.ir import evaluate_function
from repro.mesh import Mesh as MeshCls
from repro.core import ShardingEnv, tile
from repro.core.propagate import propagate
from repro.sim import TPU_V3, estimate, mfu, model_flops, peak_live_bytes
from repro.spmd import lower
from repro.trace import ops
from tests.conftest import build_matmul_chain, random_args


class TestNameMatching:
    def test_segment_subsequence(self):
        assert _name_matches("params", "0/params/block/qkv_w")
        assert _name_matches("block/qkv_w", "0/params/block/qkv_w")
        assert _name_matches("0/params/block/qkv_w", "0/params/block/qkv_w")
        assert not _name_matches("qkv", "0/params/block/qkv_w")
        assert not _name_matches("params/qkv_w", "0/params/block/qkv_w")


class TestManualPartition:
    def _traced(self):
        def f(state, x):
            return x @ state["w"] + state["b"]

        return trace(f, {"w": ShapeDtype((8, 16)), "b": ShapeDtype((16,))},
                     ShapeDtype((32, 8)))

    def test_int_spec(self):
        tf = self._traced()
        env = ShardingEnv(MeshCls({"batch": 4}))
        ManualPartition({"1": 0}, axis="batch").apply(tf.function, env)
        assert env.sharding(tf.function.params[2]).dim_axes == (("batch",),
                                                                ())

    def test_missing_key_raises(self):
        tf = self._traced()
        env = ShardingEnv(MeshCls({"batch": 4}))
        with pytest.raises(ShardingError, match="no input or tag"):
            ManualPartition({"nope": 0}, axis="batch").apply(tf.function, env)

    def test_replicated_pins(self):
        tf = self._traced()
        env = ShardingEnv(MeshCls({"batch": 4}))
        ManualPartition({"w": REPLICATED}, axis="batch").apply(
            tf.function, env
        )
        assert env.sharding(tf.function.params[1]).is_pinned("batch")

    def test_first_divisible_dim_skips_small(self):
        def f(state):
            return ops.reduce_sum(state["w"]) + ops.reduce_sum(state["t"])

        tf = trace(f, {"w": ShapeDtype((3, 8)), "t": ShapeDtype((3, 3))})
        env = ShardingEnv(MeshCls({"batch": 4}))
        ManualPartition({"0": FIRST_DIVISIBLE_DIM}, axis="batch").apply(
            tf.function, env
        )
        w_sharding = env.sharding(tf.function.params[1])
        t_sharding = env.sharding(tf.function.params[0])
        assert w_sharding.dim_axes == ((), ("batch",))
        assert t_sharding.is_fully_replicated()  # 3x3: nothing divisible

    def test_callable_spec(self):
        tf = self._traced()
        env = ShardingEnv(MeshCls({"batch": 4}))
        ManualPartition(
            {"0": lambda name, v: 0 if name.endswith("w") else None},
            axis="batch",
        ).apply(tf.function, env)
        assert env.sharding(tf.function.params[1]).dim_axes == (("batch",),
                                                                ())

    def test_tactic_never_redoes_axis(self):
        tf = self._traced()
        env = ShardingEnv(MeshCls({"batch": 4}))
        tactic = ManualPartition({"1": 0}, axis="batch")
        tactic.apply(tf.function, env)
        # Applying again (or a second tactic on the same axis) is a no-op.
        assert tactic.apply(tf.function, env) == 0


class TestPartirJit:
    def test_end_to_end_with_metadata(self, rng):
        def f(state, x):
            h = ops.tanh(x @ state["w1"])
            return h @ state["w2"]

        tf = trace(f, {"w1": ShapeDtype((8, 16)), "w2": ShapeDtype((16, 8))},
                   ShapeDtype((32, 8)))
        mesh = Mesh({"B": 4, "M": 2})
        schedule = [
            ManualPartition({"1": 0}, axis="B"),
            ManualPartition({"w1": 1}, axis="M"),
        ]
        fn, meta = partir_jit(tf, mesh, schedule)
        assert len(meta.reports) == 2
        assert meta.reports[0].counts.total == 0          # BP: pure map
        assert meta.reports[1].counts.all_reduce == 1     # Megatron AR
        assert meta.partition_time_s > 0
        assert "1" in meta.input_shardings
        # Numerics through the PartitionedFunction callable:
        state = {"w1": rng.randn(8, 16).astype(np.float32),
                 "w2": rng.randn(16, 8).astype(np.float32)}
        x = rng.randn(32, 8).astype(np.float32)
        out = fn(state, x)
        expected = np.tanh(x @ state["w1"]) @ state["w2"]
        np.testing.assert_allclose(out, expected, atol=1e-3)

    def test_metadata_reports_conflicts(self):
        function, (x, w, *_ ) = build_matmul_chain()
        # conflicting amalgamated actions via the api on a traced fn:
        def f(x, w):
            return ops.dot_general(x, w, ((1,), (0,)))

        tf = trace(f, ShapeDtype((32, 16)), ShapeDtype((16, 8)))
        mesh = Mesh({"B": 4})
        schedule = [ManualPartition({"0": 0, "1": 1}, axis="B")]
        _, meta = partir_jit(tf, mesh, schedule)
        assert meta.reports[0].conflicts

    def test_final_lowering_is_the_last_tactics_snapshot(self, monkeypatch):
        """Per-tactic feedback lowers once per tactic; the final lowering
        is the last snapshot, not a second lowering of an unchanged env."""
        import repro.api as api

        lowerings, priced = [], []
        real_lower, real_estimate = api.lower, api.costmodel.estimate

        def counting_lower(function, env):
            lowerings.append(real_lower(function, env))
            return lowerings[-1]

        def recording_estimate(lowered, device):
            priced.append(lowered)
            return real_estimate(lowered, device)

        monkeypatch.setattr(api, "lower", counting_lower)
        monkeypatch.setattr(api.costmodel, "estimate", recording_estimate)
        tf = trace(lambda x, w: ops.tanh(x @ w) @ w,
                   ShapeDtype((32, 8)), ShapeDtype((8, 8)))
        schedule = [ManualPartition({"0": 0}, axis="B"),
                    ManualPartition({"1": 1}, axis="M"),
                    ManualPartition({"1": 0}, axis="B")]
        fn, meta = partir_jit(tf, Mesh({"B": 4, "M": 2}), schedule)
        assert len(lowerings) == len(priced) == len(schedule)
        assert meta.lowered is fn.lowered is lowerings[-1] is priced[-1]
        assert meta.reports[-1].counts == meta.counts
        assert meta.lower_time_s > 0
        # Without per-tactic feedback there is no snapshot to reuse.
        del lowerings[:]
        _, meta = partir_jit(tf, Mesh({"B": 4, "M": 2}), schedule,
                             estimate_per_tactic=False)
        assert len(lowerings) == 1 and meta.lowered is lowerings[0]

    def test_device_reaches_the_search(self):
        """``partir_jit(device=...)`` prices the search as well as the
        final estimate: an ``AutomaticPartition`` without its own
        ``"device"`` used to search on ``TPU_V3`` and return the empty
        plan here.  The forwarding is call-scoped and never overrides a
        tactic's own device."""
        from repro import AutomaticPartition
        from repro.sim import DeviceSpec, costmodel

        tiny = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                          link_bandwidth=1e9)
        tf = trace(lambda w, x: ops.reduce_sum(x @ w),
                   ShapeDtype((64, 64)), ShapeDtype((32, 64)))
        tactic = AutomaticPartition(
            ["B", "M"], {"budget": 24, "rollout_depth": 2, "seed": 7})
        _, meta = partir_jit(tf, Mesh({"B": 4, "M": 2}), [tactic],
                             device=tiny, estimate_per_tactic=False)
        assert tactic.last_search.actions == [(0, 0, 1, "B"), (0, 1, 0, "M")]
        assert tactic.last_search.cost == costmodel.search_objective(
            meta.estimate, tiny)
        assert "device" not in tactic.options
        partir_jit(tf, Mesh({"B": 4, "M": 2}), [tactic],
                   estimate_per_tactic=False)  # default device: TPU_V3
        assert tactic.last_search.actions == []
        # A tactic that pins its own device keeps it.
        tactic.options["device"] = TPU_V3
        partir_jit(tf, Mesh({"B": 4, "M": 2}), [tactic], device=tiny,
                   estimate_per_tactic=False)
        assert tactic.last_search.actions == []
        assert tactic.options["device"] is TPU_V3

    def test_tactic_options_stay_unchanged_during_the_call(self,
                                                           monkeypatch):
        """``partir_jit`` hands its device and plan server to the search
        instead of writing them into the tactic, so a tactic object shared
        by concurrent calls never searches on another call's device."""
        from repro import AutomaticPartition
        from repro.auto import search
        from repro.sim import DeviceSpec

        tiny = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                          link_bandwidth=1e9)
        tactic = AutomaticPartition(["B"], {"budget": 2})
        before = dict(tactic.options)
        seen = []

        def stub_search(function, env, axes, result_sink, device, config):
            seen.append((dict(tactic.options), device, config.plan_server))
            return 0

        monkeypatch.setattr(search, "run_automatic_partition", stub_search)
        tf = trace(lambda x, w: x @ w, ShapeDtype((8, 4)), ShapeDtype((4, 4)))
        partir_jit(tf, Mesh({"B": 2}), [tactic], device=tiny,
                   estimate_per_tactic=False, plan_server="127.0.0.1:1")
        assert seen == [(before, tiny, "127.0.0.1:1")]
        assert tactic.options == before


class TestSimulator:
    def _lowered(self, actions=()):
        function, values = build_matmul_chain()
        named = {"x": values[0], "w1": values[1], "w2": values[2]}
        env = ShardingEnv(MeshCls({"B": 4, "M": 2}))
        for name, dim, axis in actions:
            tile(env, named[name], dim, axis)
            propagate(function, env)
        lowered = lower(function, env)
        return function, lowered

    def test_batch_sharding_divides_flops(self):
        function, replicated = self._lowered()
        _, sharded = self._lowered([("x", 0, "B")])
        est_r = estimate(replicated, TPU_V3)
        est_s = estimate(sharded, TPU_V3)
        assert est_s.local_flops * 4 == pytest.approx(est_r.local_flops)

    def test_collectives_add_comm_time(self):
        _, sharded = self._lowered([("x", 0, "B"), ("w1", 1, "M")])
        est = estimate(sharded, TPU_V3)
        assert est.comm_s > 0
        assert "all_reduce" in est.collective_time_s

    def test_model_flops_counts_both_matmuls(self, matmul_chain):
        function, _ = matmul_chain
        expected = 2 * 256 * 8 * 16 + 2 * 256 * 16 * 8
        assert model_flops(function) == expected

    def test_mfu_definition(self, matmul_chain):
        function, _ = matmul_chain
        flops = model_flops(function)
        step = flops / (8 * TPU_V3.peak_flops)  # exactly 100% on 8 devices
        assert mfu(function, step, 8, TPU_V3) == pytest.approx(100.0)

    def test_peak_memory_sharding_reduces(self):
        _, replicated = self._lowered()
        _, sharded = self._lowered([("x", 0, "B")])
        assert (peak_live_bytes(sharded.function)
                < peak_live_bytes(replicated.function))

    def test_aliasing_ops_do_not_allocate(self):
        from repro.ir import FunctionBuilder

        b = FunctionBuilder()
        x = b.param((64, 64), name="x")
        t = b.emit1("transpose", [x], {"permutation": (1, 0)})
        r = b.emit1("reshape", [t], {"new_shape": (4096,)})
        function = b.ret(r)
        assert peak_live_bytes(function) == x.type.nbytes
