"""``Function.index``: the one derivation of structural positions.

Value indices (``portable_state``, probe digests), tag-point indices and
loop indices (action tuples) all come from ``function.index``.  This
module pins it to ``tests/oracle.py::reference_index`` and ``walk()`` on
every model family and on nested loops, and pins the memo it lives in
(:meth:`Function.derived`): every view is rebuilt once the function grows.
"""

import pytest

from repro import ShapeDtype, trace
from repro.core.pipeline import loop_ops
from repro.core.propagate import _function_index
from repro.core.sharding import ShardingEnv
from repro.ir import FunctionBuilder, opdefs
from repro.ir.tagpoints import tag_points
from repro.mesh import Mesh
from repro.models import bottleneck, gns, transformer, unet
from repro.models import pipeline as pm
from repro.spmd.lower import plan_table
from repro.trace import ops

from oracle import reference_index

IT32 = transformer.it32(num_layers=2, d_model=16, num_heads=4, d_head=4,
                        ffw_dim=32, vocab=32, batch=8, decode_steps=4)


def _nested_loops():
    """A scan whose body runs a scan and a while loop, plus a fori loop."""
    def fn(x, w):
        def outer(i, c):
            inner = ops.scan(lambda j, d: [ops.tag(d * x, "inner")], [c], 2)
            halted = ops.while_loop(lambda j, d: j < 3,
                                    lambda j, d: [d + w], [inner], 3)
            return [halted * c]

        y = ops.scan(outer, [x], 3)
        return ops.fori_loop(0, 2, lambda i, c: [c - x], [y])

    return trace(fn, ShapeDtype((4,)), ShapeDtype((4,)))


FAMILIES = {
    "transformer": lambda: transformer.trace_training_step(
        transformer.tiny()),
    "it32_scan": lambda: transformer.trace_inference(IT32),
    "unet": lambda: unet.trace_training_step(unet.tiny()),
    "gns": lambda: gns.trace_training_step(gns.tiny()),
    "pipeline": lambda: pm.trace_pipeline_transformer(pm.tiny()),
    "moe": lambda: pm.trace_pipeline_moe(pm.tiny(batch=16, num_experts=8)),
    "bottleneck": lambda: bottleneck.trace_training_step(
        bottleneck.ensemble()),
    "nested_loops": _nested_loops,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_index_is_the_reference_order(family):
    function = FAMILIES[family]().function
    index = function.index
    ref_ops, ref_values = reference_index(function)
    walked = list(function.walk())
    assert index.ops == ref_ops == walked
    assert index.values == ref_values
    assert len(set(index.values)) == len(index.values)
    assert index.value_ids == {v: i for i, v in enumerate(ref_values)}
    assert [p.op for p in tag_points(function)] \
        == [op for op in walked if op.opcode == "tag"]
    assert [p.index for p in tag_points(function)] \
        == list(range(len(tag_points(function))))
    assert loop_ops(function) \
        == [op for op in walked if op.opcode in opdefs.LOOP_OPS]
    # A region's index is the same visitor over the region: a loop's
    # subtree is its results plus its regions' values, in place.
    for op in loop_ops(function):
        start = index.value_ids[op.results[0]]
        subtree = list(op.results) + [
            v for region in op.regions for v in region.index.values]
        assert index.values[start:start + len(subtree)] == subtree
    if family == "nested_loops":
        assert [op.opcode for op in loop_ops(function)] \
            == ["scan", "scan", "while_loop", "fori_loop"]


def test_portable_state_addresses_values_by_index():
    function = FAMILIES["nested_loops"]().function
    env = ShardingEnv(Mesh({"d": 2}))
    x = function.params[0]
    env.set_sharding(x, env.sharding(x).with_tile(0, "d"))
    assert env.portable_state(function)[0][0] == 0
    clone = ShardingEnv(env.mesh)
    clone.apply_portable_state(function, env.portable_state(function))
    assert clone.portable_state(function) == env.portable_state(function)


DOT = {"lhs_contract": (1,), "rhs_contract": (0,)}


def test_every_view_is_rebuilt_after_the_function_grows():
    b = FunctionBuilder("main")
    x = b.param((8, 8), name="x")
    w = b.param((8, 8), name="w")
    h = b.emit1("dot_general", [x, w], DOT)
    first = b.emit1("tag", [h], {"name": "first"})
    function = b.function
    mesh = Mesh({"d": 2})

    index = function.index
    transfers = _function_index(function)
    plans = plan_table(function, mesh)
    assert len(tag_points(function)) == 1
    assert function.index is index  # memoized while nothing changes
    assert plan_table(function, mesh) is plans

    second = b.emit1("tag", [first], {"name": "second"})
    b.ret(second)
    assert [p.name for p in tag_points(function)] == ["first", "second"]
    assert function.index is not index
    assert function.index.values[-1] is second
    assert function.index.value_ids[second] == 4
    assert len(_function_index(function).ops) == 3
    assert _function_index(function) is not transfers
    assert plan_table(function, mesh) is not plans
    assert loop_ops(function) == []


def test_derived_builds_once_per_key_and_structure():
    function = FunctionBuilder("main").function
    builds = []

    def build(fn):
        builds.append(fn)
        return object()

    view = function.derived("view", build)
    assert function.derived("view", build) is view
    assert function.derived(("view", 2), build) is not view
    assert len(builds) == 2
    function.ops.append(FAMILIES["nested_loops"]().function.ops[0])
    assert function.derived("view", build) is not view
    assert len(builds) == 3
