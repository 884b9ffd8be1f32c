"""Search-estimate-vs-materialized bit-identity (PR 6 pin).

The search's estimator (`estimate_incremental`: an O(dirty) refresh of
per-op segments from the env's write journal, then one fold over every
segment's cost terms and live-range records) must stay **field-exact**
with the materializing ``lower -> fuse_collectives -> estimate`` reference
pipeline — not approximately, bit for bit, on every :class:`CostEstimate`
field.

65 seeded rollout chains (13 seeds x 5 models: transformer, GNS, UNet,
the interior-bottleneck ensemble and the microbatched pipeline stack —
whose chains draw PIPELINE actions) drive checkpoint/apply/rollback
trajectories with a *rollback-heavy* mix (~40% of steps unwind), checking
the equality after every step.  Rollbacks are where the journal-driven
refresh earns its keep — and where stale segments or missed journal
windows would show up first.  Each chain ends by pricing its final env
with a fresh estimator: the long-lived one's answer must not depend on
the history it was driven through.
"""

import dataclasses
import random

import pytest

from oracle import assert_estimates_identical, reference_estimate
from repro.auto.evaluator import candidate_actions, try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import bottleneck
from repro.models import gns as gns_mod
from repro.models import pipeline as pipeline_mod
from repro.models import transformer
from repro.models import unet as unet_mod
from repro.sim import TPU_V3, costmodel

MESH = Mesh({"batch": 4, "model": 2})


def _cases():
    tcfg = transformer.t32(num_layers=2, d_model=64, num_heads=4, d_head=16,
                           ffw_dim=128, vocab=128, seq_len=16, batch=8)
    gcfg = gns_mod.gns(num_nodes=64, num_edges=256, feature_dim=8,
                       latent_dim=16, mlp_layers=2, message_steps=2,
                       out_dim=8)
    ucfg = unet_mod.unet(num_down=2, num_up=2, channels=8, in_channels=4,
                         image_size=16, batch=4, attention_heads=2,
                         temb_dim=8)
    bcfg = bottleneck.ensemble(batch=2, width=16, d_model=128, ffw_dim=512)
    return [
        ("transformer", transformer.trace_training_step(tcfg)),
        ("gns", gns_mod.trace_training_step(gcfg)),
        ("unet", unet_mod.trace_training_step(ucfg)),
        ("bottleneck", bottleneck.trace_forward(bcfg)),
        # The microbatched loop stack: chains here draw PIPELINE actions
        # (and tilings that cross the loop boundary), so the differential
        # engine's loop segments see pipelining mid-trajectory.
        ("pipeline", pipeline_mod.trace_pipeline_transformer(
            pipeline_mod.tiny())),
    ]


CASES = _cases()
#: Per case, for the session: portable env state -> materialized estimate.
#: The reference is a pure function of that state, and chains of one case
#: (and every rollback within a chain) keep landing on states seen before.
REFERENCES = [{} for _ in CASES]


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[name for name, _ in CASES])
@pytest.mark.parametrize("seed", range(13))
def test_differential_streaming_materialized_field_exact(case, seed):
    """Search estimate == materialized along rollback-heavy trajectories:
    65 seeded chains, every step compared on every estimate field.  The
    streaming corner — the forced whole-function rebuild == materialized —
    is ``test_streaming_equivalence.py``'s."""
    _, traced = CASES[case]
    function = traced.function
    env = ShardingEnv(MESH)
    propagate(function, env)
    env.enable_journal()
    differential = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    candidates = candidate_actions(function, env, ["batch", "model"], 6)
    if not candidates:
        pytest.skip("no candidate actions for this trace")

    rng = random.Random(9000 * case + seed)
    tokens = []
    reference = REFERENCES[case]
    for step in range(12):
        # Rollback-heavy mix: ~40% of steps unwind part of the stack.
        if tokens and rng.random() < 0.4:
            index = rng.randrange(len(tokens))
            env.rollback(tokens[index])
            del tokens[index:]
        else:
            token = env.checkpoint()
            try_apply_action(function, env, rng.choice(candidates))
            propagate(function, env, incremental=True)
            tokens.append(token)
        fast = differential.estimate_incremental(env, env.drain_journal())
        materialized = reference_estimate(function, env, TPU_V3, reference)
        assert_estimates_identical(fast, materialized, step)
        # Field-exact implies dict-exact (collective breakdown included).
        assert dataclasses.asdict(fast) == dataclasses.asdict(materialized), \
            step
    # The fold is order- and history-free: a fresh estimator's whole-function
    # refresh of the chain's final env lands on the long-lived one's answer.
    fresh = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    assert dataclasses.asdict(fresh.estimate_incremental(env)) \
        == dataclasses.asdict(fast)
