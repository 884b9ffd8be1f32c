"""Property-based tests (hypothesis): the executable analogue of the paper's
Appendix C theorem — for random programs and random schedules, the lowered
SPMD program run on the simulated mesh equals the unpartitioned reference.
Loop programs extend the property with random PIPELINE actions, and pin the
materializing / streaming / differential estimates field-exact along the way.
"""


import numpy as np
from hypothesis import given, settings, strategies as st

from oracle import assert_estimates_identical
from repro.ir import FunctionBuilder, evaluate_function
from repro.mesh import Mesh
from repro.core import Sharding, ShardingEnv, tile
from repro.core.propagate import propagate
from repro.core.pipeline import SCHEDULES, apply_pipeline, pipeline_legal
from repro.errors import ShardingError
from repro.runtime import MeshExecutor, shard_array, unshard_arrays
from repro.sim import TPU_V3, costmodel
from repro.spmd import lower
from repro.trace import ShapeDtype, ops, trace

MESH = Mesh({"a": 2, "b": 2})

# Strategy: build a random straight-line program over 2D tensors.
_DIMS = st.sampled_from([2, 4, 8])


@st.composite
def random_program(draw):
    """A random DAG of matmuls/elementwise ops over a pool of 2D values."""
    n_params = draw(st.integers(2, 4))
    n_ops = draw(st.integers(2, 6))
    b = FunctionBuilder("prog")
    sizes = [(draw(_DIMS), draw(_DIMS)) for _ in range(n_params)]
    pool = [b.param(s, name=f"p{i}") for i, s in enumerate(sizes)]
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["matmul", "add", "mul", "tanh",
                                     "transpose", "reduce"]))
        rank2 = [v for v in pool if v.type.rank == 2]
        if kind == "matmul":
            if not rank2:
                continue
            lhs = draw(st.sampled_from(rank2))
            candidates = [v for v in rank2
                          if v.type.shape[0] == lhs.type.shape[1]]
            if not candidates:
                continue
            rhs = draw(st.sampled_from(candidates))
            pool.append(
                b.emit1("dot_general", [lhs, rhs],
                        {"lhs_contract": (1,), "rhs_contract": (0,)})
            )
        elif kind in ("add", "mul"):
            lhs = draw(st.sampled_from(pool))
            candidates = [v for v in pool if v.type.shape == lhs.type.shape]
            rhs = draw(st.sampled_from(candidates))
            pool.append(b.emit1(kind, [lhs, rhs]))
        elif kind == "tanh":
            pool.append(b.emit1("tanh", [draw(st.sampled_from(pool))]))
        elif kind == "transpose":
            if not rank2:
                continue
            v = draw(st.sampled_from(rank2))
            pool.append(b.emit1("transpose", [v], {"permutation": (1, 0)}))
        else:
            if not rank2:
                continue
            v = draw(st.sampled_from(rank2))
            pool.append(b.emit1("reduce_sum", [v], {"dims": (1,)}))
    result = next(v for v in reversed(pool) if v.type.rank == 2)
    function = b.ret(result)
    # Random schedule: a few tile actions on params.
    actions = []
    for _ in range(draw(st.integers(0, 4))):
        p = draw(st.integers(0, n_params - 1))
        dim = draw(st.integers(0, 1))
        axis = draw(st.sampled_from(["a", "b"]))
        actions.append((p, dim, axis))
    return function, actions


@given(random_program(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_partitioned_equals_unpartitioned(program, seed):
    function, actions = program
    env = ShardingEnv(MESH)
    for p, dim, axis in actions:
        try:
            tile(env, function.params[p], dim, axis)
        except ShardingError:
            continue  # indivisible / axis reuse: skip the action
        propagate(function, env)
    lowered = lower(function, env)
    rng = np.random.RandomState(seed % (2 ** 31))
    args = [rng.randn(*p.type.shape).astype(np.float32) * 0.5
            for p in function.params]
    expected, = evaluate_function(function, args)
    actual, = MeshExecutor(lowered)(*args)
    np.testing.assert_allclose(actual, expected, atol=1e-3, rtol=1e-2)


@st.composite
def random_loop_program(draw):
    """A microbatched loop over a random matmul chain, plus a random
    schedule mixing input tilings and an optional PIPELINE action."""
    batch = draw(st.sampled_from([8, 16]))
    width = draw(st.sampled_from([4, 8]))
    depth = draw(st.integers(2, 4))
    trips = draw(st.sampled_from([2, 4]))
    mb = batch // trips
    nonlinear = draw(st.booleans())

    def f(x, *ws):
        acc0 = ops.zeros_like(x)

        def body(i, acc):
            chunk = ops.dynamic_slice_in_dim(x, i * mb, mb, dim=0)
            h = chunk
            for w in ws:
                h = h @ w
                if nonlinear:
                    h = ops.tanh(h)
            return (ops.dynamic_update_slice_in_dim(acc, h, i * mb, dim=0),)

        return ops.scan(body, (acc0,), trip_count=trips)[0]

    specs = [ShapeDtype((batch, width))]
    specs += [ShapeDtype((width, width)) for _ in range(depth)]
    function = trace(f, *specs).function
    tiles = [
        (draw(st.integers(0, depth)), draw(st.integers(0, 1)),
         draw(st.sampled_from(["a", "b"])))
        for _ in range(draw(st.integers(0, 3)))
    ]
    pipeline = None
    if draw(st.booleans()):
        pipeline = (draw(st.sampled_from(["a", "b"])),
                    draw(st.sampled_from(list(SCHEDULES))))
    return function, tiles, pipeline


@given(random_loop_program(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_loop_pipeline_partitioned_equals_unpartitioned(program, seed):
    """Random loop programs under random tile+pipeline schedules: the
    partitioned run equals the reference, and the differential estimate
    stays field-exact with the materializing pipeline."""
    function, tiles, pipeline = program
    mesh = Mesh({"a": 2, "b": 2})
    env = ShardingEnv(mesh)
    differential = costmodel.StreamingEstimator(function, mesh, TPU_V3)
    if pipeline is not None:
        axis, schedule = pipeline
        (loop,) = [op for op in function.ops if op.opcode == "scan"]
        if pipeline_legal(env, loop, axis, schedule):
            apply_pipeline(env, loop, axis, schedule)
    for p, dim, axis in tiles:
        try:
            tile(env, function.params[p], dim, axis)
        except ShardingError:
            continue
        propagate(function, env)
    propagate(function, env)
    fast = differential.estimate_incremental(env)
    lowered = lower(function, env)
    materialized = costmodel.estimate(lowered, TPU_V3)
    assert_estimates_identical(fast, materialized)
    rng = np.random.RandomState(seed % (2 ** 31))
    args = [rng.randn(*p.type.shape).astype(np.float32) * 0.5
            for p in function.params]
    expected, = evaluate_function(function, args)
    actual, = MeshExecutor(lowered)(*args)
    np.testing.assert_allclose(actual, expected, atol=1e-3, rtol=1e-2)


@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(
            st.tuples(*[st.sampled_from([1, 2, 4, 8])] * rank),
            st.lists(
                st.tuples(st.integers(0, rank - 1),
                          st.sampled_from(["a", "b"])),
                max_size=2,
            ),
        )
    ),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_shard_unshard_roundtrip(case, seed):
    shape, tiles = case
    rng = np.random.RandomState(seed % (2 ** 31))
    x = rng.randn(*shape).astype(np.float32)
    sharding = Sharding.replicated(len(shape))
    for dim, axis in tiles:
        denom = MESH.group_size(sharding.dim_axes[dim]) * MESH.size(axis)
        if axis in sharding.used or shape[dim] % denom:
            continue
        sharding = sharding.with_tile(dim, axis)
    coords = list(MESH.device_coords())
    chunks = [shard_array(x, sharding.dim_axes, MESH, c) for c in coords]
    back = unshard_arrays(chunks, sharding.dim_axes, MESH, coords)
    np.testing.assert_array_equal(back, x)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_local_shape_times_group_is_global(data):
    rank = data.draw(st.integers(1, 3))
    sharding = Sharding.replicated(rank)
    shape = []
    for d in range(rank):
        axes = data.draw(
            st.lists(st.sampled_from(["a", "b"]), unique=True, max_size=2)
        )
        size = data.draw(st.sampled_from([4, 8, 16]))
        shape.append(size)
        for axis in axes:
            if axis in sharding.used:
                continue
            sharding = sharding.with_tile(d, axis)
    local = sharding.local_shape(tuple(shape), MESH)
    for d in range(rank):
        assert local[d] * MESH.group_size(sharding.dim_axes[d]) == shape[d]
