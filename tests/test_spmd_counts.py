"""Golden collective-count tests for ``spmd/count.py`` and ``lower``'s fusion.

Exact per-schedule collective counts (bp / zero2 / zero3 on a 2-layer
transformer, edge sharding on a small GNS, and the quickstart matmul chain)
pin the lowering + fusion pipeline, whether each tactic propagates from its
own actions or is followed by a whole-function sweep.  The zero2/zero3
goldens encode the paper's headline fusion effect: all but one gradient
``all_reduce`` becomes a ``reduce_scatter``.
"""

import pytest

from repro.api import ManualPartition
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import gns as gns_mod
from repro.models import transformer
from repro.models.schedules import bp, megatron_mp, zero2, zero3, edge_sharding
from repro.spmd import count_collectives, lower

from conftest import build_matmul_chain
from oracle import apply_with_full_sweep, unfused_lower

MESH = Mesh({"batch": 4, "model": 2})
DATA = {"tokens": 0, "targets": 0}
COLLECTIVES = ("all_gather", "all_reduce", "reduce_scatter", "all_to_all")


@pytest.fixture(scope="module")
def tiny_transformer():
    cfg = transformer.t32(num_layers=2, d_model=64, num_heads=4, d_head=16,
                          ffw_dim=128, vocab=128, seq_len=16, batch=8)
    return transformer.trace_training_step(cfg)


def _lower_counts(function, env):
    """Collective counts of the unfused emission (the oracle's: ``lower``
    itself emits fused chains) and of the fused lowering."""
    unfused = count_collectives(unfused_lower(function, env).function)
    lowered = lower(function, env)
    fused = count_collectives(lowered.function)
    return unfused, fused, lowered


def _apply(function, schedule, mesh=MESH, sweep=False):
    env = ShardingEnv(mesh)
    for tactic in schedule:
        if sweep:
            apply_with_full_sweep(tactic, function, env)
        else:
            tactic.apply(function, env)
    return env


# (schedule builder, unfused golden, fused golden) — dicts are
# (AG, AR, RS, A2A) in count_collectives.as_dict() order.
TRANSFORMER_GOLDENS = {
    "bp": (lambda: [bp(DATA)],
           (0, 20, 0, 0), (0, 20, 0, 0)),
    "bp+z2": (lambda: [bp(DATA), zero2(all_tensors=True)],
              (19, 20, 0, 0), (19, 1, 19, 0)),
    "bp+z3": (lambda: [bp(DATA), zero3(all_tensors=True)],
              (29, 20, 0, 0), (29, 1, 19, 0)),
    "bp+mp+z3": (lambda: [bp(DATA), megatron_mp(), zero3(all_tensors=True)],
                 (29, 28, 0, 0), (29, 9, 19, 0)),
}


@pytest.mark.parametrize("label", sorted(TRANSFORMER_GOLDENS))
@pytest.mark.parametrize("sweep", [False, True])
def test_transformer_schedule_goldens(tiny_transformer, label, sweep):
    builder, unfused_golden, fused_golden = TRANSFORMER_GOLDENS[label]
    env = _apply(tiny_transformer.function, builder(), sweep=sweep)
    unfused, fused, _ = _lower_counts(tiny_transformer.function, env)
    assert tuple(unfused.as_dict().values()) == unfused_golden, label
    assert tuple(fused.as_dict().values()) == fused_golden, label


def test_zero_fusion_turns_gradient_reduces_into_scatters(tiny_transformer):
    """The paper's ZeRO accounting: fusion rewrites every sharded-gradient
    all_reduce+slice into a reduce_scatter, leaving exactly one residual
    all_reduce (the loss/unsharded gradient)."""
    env = _apply(tiny_transformer.function,
                 [bp(DATA), zero3(all_tensors=True)])
    unfused, fused, _ = _lower_counts(tiny_transformer.function, env)
    assert unfused.reduce_scatter == 0
    assert fused.reduce_scatter == unfused.all_reduce - fused.all_reduce
    assert fused.all_reduce == 1


def test_gns_edge_sharding_golden():
    cfg = gns_mod.gns(num_nodes=64, num_edges=256, feature_dim=8,
                      latent_dim=16, mlp_layers=2, message_steps=2, out_dim=8)
    tf = gns_mod.trace_training_step(cfg)
    env = _apply(tf.function, [edge_sharding()], mesh=Mesh({"batch": 4}))
    unfused, fused, _ = _lower_counts(tf.function, env)
    # Edge sharding leaves partial sums at every aggregation: all_reduces
    # only, and nothing for fusion to rewrite (no slices follow them).
    assert tuple(unfused.as_dict().values()) == (0, 18, 0, 0)
    assert tuple(fused.as_dict().values()) == (0, 18, 0, 0)


def test_quickstart_chain_collective_sequence():
    """Listing 5's BP+MP+Z3 on the two-matmul chain: one all_gather per
    sharded weight use and a final all_reduce of the M-contraction."""
    function, _ = build_matmul_chain()
    mesh = Mesh({"B": 4, "M": 2})
    env = _apply(function, [
        ManualPartition({"x": 0}, axis="B"),
        ManualPartition({"w1": 1}, axis="M"),
        ManualPartition({"w1": 0, "w2": 1}, axis="B"),
    ], mesh=mesh)
    _, fused, lowered = _lower_counts(function, env)
    sequence = [op.opcode for op in lowered.function.walk()
                if op.opcode in COLLECTIVES]
    assert sequence == ["all_gather", "all_gather", "all_reduce"]
    assert tuple(fused.as_dict().values()) == (2, 1, 0, 0)


def test_scan_counts_scale_with_trip_count():
    """count_collectives multiplies collectives inside scan bodies by the
    trip count unless ``static=True``."""
    from repro.ir.function import FunctionBuilder

    inner = FunctionBuilder("body")
    it = inner.param((), name="i")
    carry = inner.param((8, 8), name="c")
    reduced = inner.emit1("all_reduce", [carry],
                          {"axes": ("B",), "kind": "add", "sizes": {"B": 4}})
    body = inner.ret(reduced)

    outer = FunctionBuilder("main")
    x = outer.param((8, 8), name="x")
    outer.function.input_names = ["x"]
    result = outer.emit(
        "scan", [x], {"trip_count": 5, "num_carries": 1}, regions=[body]
    )
    function = outer.ret(result.results[0])

    dynamic = count_collectives(function)
    static = count_collectives(function, static=True)
    assert dynamic.all_reduce == 5
    assert static.all_reduce == 1
