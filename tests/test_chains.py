"""The chain suite: the search's fast paths against their references.

One model-family table (``FAMILIES``), one seeded trajectory runner
(:func:`run_chain`) and one session-wide reference memo per family.  A
trajectory moves one long-lived env through a seeded mix of manual
tactics, search actions (the search's candidate tuples, pipeline splits
included) and rollbacks to a random depth of its checkpoint stack.  Every
``STRIDE``-th step and the last (every step on seed 0) it asserts:

1. the long-lived ``StreamingEstimator`` (memoized across every state
   of the trajectory) is field-exact against the materializing
   ``lower -> estimate`` reference (``oracle.reference_estimate``);
2. an ``Evaluator`` driven through the same trajectory's search-action
   sets (shared, extended and abandoned prefixes) computes exactly
   ``oracle.reference_cost`` for each;
3. replaying the live steps onto a fresh env with a whole-function
   sweep after each (``oracle.full_sweep``) gives the same shardings and
   the same set of distinct conflicts as dirty-seeded propagation.

At the chain's end a fresh estimator equals the long-lived one, and the
sweep env's fused lowering emits the trajectory env's collective
sequence (lowering reads only shardings, so check 3 carries it to the
steps in between).  ``test_search_stores_reference_costs`` pins every
cost a fixed-seed search stored to the reference, per family, and
``test_backends_agree_with_reference`` the serial, batched and process
schedulers to each other and to it.

The chains and the search checks are memoized, so the entry points
other modules keep under their historical ids run each chain once.
"""

import dataclasses
import functools
import random
import tempfile
from collections import defaultdict

import pytest

from oracle import (
    apply_with_full_sweep,
    assert_estimates_identical,
    full_sweep,
    reference_cost,
    reference_estimate,
)
from repro.api import ManualPartition, Tactic
from repro.auto.cache import table_for
from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.search import mcts_search
from repro.auto.tree import canonical_key
from repro.core.actions import try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.errors import ShardingError
from repro.mesh import Mesh
from repro.models import bottleneck
from repro.models import gns as gns_mod
from repro.models import pipeline as pipeline_mod
from repro.models import transformer
from repro.models import unet as unet_mod
from repro.models.schedules import (
    bp,
    edge_sharding,
    emb,
    megatron_mp,
    pp,
    zero2,
    zero3,
)
from repro.sim import TPU_V3, costmodel
from repro.spmd import collective_sequence, lower

MESH = Mesh({"batch": 4, "model": 2})
AXES = ("batch", "model")
DEVICE = TPU_V3
STEPS = 10
STRIDE = 3
SEEDS = range(6)
SEARCH = dict(device=DEVICE, budget=10, rollout_depth=2, max_inputs=6,
              seed=0)


class Family:
    """A traced program (built on first use) and the manual tactics its
    chains draw from; ``pool(zero)`` takes the chain's ZeRO stage."""

    def __init__(self, build, pool):
        self._build = build
        self.pool = pool

    @functools.cached_property
    def function(self):
        return self._build().function

    @functools.cached_property
    def candidates(self):
        return candidate_actions(self.function, ShardingEnv(MESH), AXES, 6)


FAMILIES = {
    "transformer": Family(
        lambda: transformer.trace_training_step(transformer.t32(
            num_layers=2, d_model=64, num_heads=4, d_head=16, ffw_dim=128,
            vocab=128, seq_len=16, batch=8)),
        lambda zero: [bp({"tokens": 0, "targets": 0}), megatron_mp(),
                      zero(), emb(),
                      ManualPartition({"qkv_w": 2}, axis="model")]),
    # IT32's decode loop: scan-body segments, priced x trip_count.
    "it32_scan": Family(
        lambda: transformer.trace_inference(transformer.it32(
            num_layers=2, d_model=64, num_heads=4, d_head=16, ffw_dim=128,
            vocab=128, batch=8, decode_steps=4)),
        lambda zero: [bp({"tokens": 0}), megatron_mp(),
                      ManualPartition({"qkv_w": 2}, axis="model")]),
    "gns": Family(
        lambda: gns_mod.trace_training_step(gns_mod.gns(
            num_nodes=64, num_edges=256, feature_dim=8, latent_dim=16,
            mlp_layers=2, message_steps=2, out_dim=8)),
        lambda zero: [edge_sharding(), bp({"nodes": 0}),
                      zero(all_tensors=True),
                      ManualPartition({"edges": 0}, axis="batch")]),
    # The family, not the size, is what a chain covers: one block each
    # way keeps convolutions, attention and the skip path.
    "unet": Family(
        lambda: unet_mod.trace_training_step(unet_mod.unet(
            num_down=1, num_up=1, channels=8, in_channels=4, image_size=8,
            batch=4, attention_heads=2, temb_dim=8)),
        lambda zero: [bp({"image": 0, "timestep": 0, "noise": 0}),
                      zero(all_tensors=True), unet_mod.megatron_mp(),
                      ManualPartition({"image": 0}, axis="batch")]),
    # A nonlinear member head before the K reduction: tag-point actions.
    "bottleneck": Family(
        lambda: bottleneck.trace_forward(bottleneck.ensemble(
            batch=2, width=16, d_model=128, ffw_dim=512)),
        lambda zero: [ManualPartition({"w1": 1, "w2": 0}, axis="model"),
                      ManualPartition({"w1": 0}, axis="batch")]),
    # The microbatched loop stack: pipeline splits mid-trajectory.
    "pipeline": Family(
        lambda: pipeline_mod.trace_pipeline_transformer(
            pipeline_mod.tiny()),
        lambda zero: [pp("model"),
                      ManualPartition({"up_w": 1, "down_w": 0},
                                      axis="model"),
                      ManualPartition({"up_w": 0}, axis="batch")]),
}

#: family -> {portable env state -> reference estimate}, for the session:
#: the reference is a pure function of that state, and rollbacks, chains
#: of one family and the search checks keep landing on states seen before.
_REFERENCES = defaultdict(dict)


def _apply(step, function, env, sweep):
    """One push step: a manual tactic or a search action, propagated
    from its writes — or, with ``sweep``, by a whole-function sweep."""
    if isinstance(step, Tactic):
        try:
            if sweep:
                apply_with_full_sweep(step, function, env)
            else:
                step.apply(function, env)
        except ShardingError:
            pass  # an illegal pipeline split issues nothing, either way
    else:
        try_apply_action(function, env, step)
        (full_sweep if sweep else propagate)(function, env)


def _sweep_env(function, steps):
    env = ShardingEnv(MESH)
    for step in steps:
        _apply(step, function, env, sweep=True)
    return env


def _conflicts(env):
    return {(id(e.op), e.axis, e.detail) for e in env.conflicts()}


def _fused_sequence(function, env):
    return collective_sequence(lower(function, env).function)


def _check(family, env, estimator, evaluator, steps, context):
    function = FAMILIES[family].function
    memo = _REFERENCES[family]
    fast = estimator.estimate_incremental(env)
    want = reference_estimate(function, env, DEVICE, memo)
    assert_estimates_identical(fast, want, context)
    assert dataclasses.asdict(fast) == dataclasses.asdict(want), context
    key = canonical_key([s for s in steps if not isinstance(s, Tactic)])
    assert evaluator.compute(key) == reference_cost(
        function, MESH, key, DEVICE, memo), (context, key)
    sweep = _sweep_env(function, steps)
    assert sweep.portable_state(function) == env.portable_state(function), \
        context
    assert _conflicts(sweep) == _conflicts(env), context
    return fast, sweep


@functools.lru_cache(maxsize=None)
def run_chain(family: str, seed: int) -> None:
    """Drive chain ``(family, seed)`` and assert the module docstring's
    checks; memoized, so a chain that passed is not re-run."""
    spec = FAMILIES[family]
    function = spec.function
    rng = random.Random(f"{family}/{seed}")
    # Never both ZeRO stages: Z3 after Z2 is illegal.
    pool = spec.pool(rng.choice([zero2, zero3]))
    rng.shuffle(pool)
    stride = 1 if seed == 0 else STRIDE
    env = ShardingEnv(MESH)
    estimator = costmodel.StreamingEstimator(function, MESH, DEVICE)
    evaluator = Evaluator(function, ShardingEnv(MESH), DEVICE)
    live = []  # (checkpoint token, step), oldest first
    for index in range(STEPS):
        if live and rng.random() < 0.35:
            depth = rng.randrange(len(live))
            env.rollback(live[depth][0])
            pool.extend(step for _, step in live[depth:]
                        if isinstance(step, Tactic))
            del live[depth:]
        else:
            if pool and rng.random() < 0.4:
                step = pool.pop()
            else:
                step = rng.choice(spec.candidates)
            token = env.checkpoint()
            _apply(step, function, env, sweep=False)
            live.append((token, step))
        if index % stride == stride - 1 or index == STEPS - 1:
            steps = [step for _, step in live]
            fast, sweep = _check(family, env, estimator, evaluator, steps,
                                 (family, seed, index))
    # The fold is history-free: a fresh estimator lands on the long-lived
    # one's answer for the chain's final env.
    fresh = costmodel.StreamingEstimator(function, MESH, DEVICE)
    assert dataclasses.asdict(fresh.estimate_incremental(env)) \
        == dataclasses.asdict(fast)
    assert _fused_sequence(function, sweep) == _fused_sequence(function, env)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chain(family, seed):
    run_chain(family, seed)


@functools.lru_cache(maxsize=None)
def check_search_table(family: str) -> None:
    """Every cost a fixed-seed search stored in its transposition table —
    the reported best included — is the reference pipeline's."""
    function = FAMILIES[family].function
    with tempfile.TemporaryDirectory() as cache_dir:
        result = mcts_search(function, ShardingEnv(MESH), list(AXES),
                             cache_dir=cache_dir, **SEARCH)
        table = table_for(cache_dir, function, MESH, DEVICE,
                          ShardingEnv(MESH))
    assert len(table._costs) >= result.evaluations > 1
    assert table._costs[tuple(result.actions)] == result.cost
    for key, cost in table._costs.items():
        assert cost == reference_cost(function, MESH, key, DEVICE,
                                      _REFERENCES[family]), key


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_search_stores_reference_costs(family):
    check_search_table(family)


@functools.lru_cache(maxsize=None)
def _transformer_search(backend: str):
    """One fixed-seed transformer search per scheduler backend."""
    return mcts_search(FAMILIES["transformer"].function, ShardingEnv(MESH),
                       list(AXES), backend=backend, workers=2, **SEARCH)


@functools.lru_cache(maxsize=None)
def check_backend(backend: str) -> None:
    result = _transformer_search(backend)
    serial = _transformer_search("serial")
    assert result.actions == serial.actions
    assert result.cost == serial.cost
    assert result.cost == reference_cost(
        FAMILIES["transformer"].function, MESH, result.actions, DEVICE,
        _REFERENCES["transformer"])


@pytest.mark.parametrize("backend", ["serial", "batched", "process"])
def test_backends_agree_with_reference(backend):
    check_backend(backend)
