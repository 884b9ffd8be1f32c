"""The search's one evaluation path vs the from-scratch reference.

``Evaluator`` (one mutable env + checkpoint/rollback + propagation-delta
replay + journal-driven differential re-estimation) must price every
canonical action set bit-identically to ``oracle.reference_cost`` (fresh
env, full-sweep propagation, the materializing lower/fuse/estimate
pipeline): over rollback-heavy random chains and over every key a
fixed-seed search stored, on every model, scan loops included.  The
incremental estimator is additionally pinned field-exact (every
``CostEstimate`` component, floating point bit-for-bit) against the
materializing pipeline over randomized checkpoint/rollback chains.
"""

import dataclasses
import functools
import random

import pytest

from oracle import reference_cost, reference_estimate
from repro.auto.evaluator import Evaluator, candidate_actions, \
    try_apply_action
from repro.auto.cache import table_for
from repro.auto.search import mcts_search
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.mesh import Mesh
from repro.models import gns as gns_mod
from repro.models import transformer
from repro.models import unet as unet_mod
from repro.sim import TPU_V3, costmodel

MESH = Mesh({"batch": 4, "model": 2})


def _cases():
    tcfg = transformer.t32(num_layers=2, d_model=128, num_heads=4, d_head=32,
                           ffw_dim=256, vocab=512, seq_len=32, batch=8)
    icfg = transformer.it32(num_layers=2, d_model=128, num_heads=4,
                            d_head=32, ffw_dim=256, vocab=512, batch=4,
                            decode_steps=3)
    gcfg = gns_mod.gns(num_nodes=64, num_edges=256, feature_dim=8,
                       latent_dim=32, mlp_layers=2, message_steps=2,
                       out_dim=8)
    ucfg = unet_mod.unet(num_down=2, num_up=2, channels=8, in_channels=4,
                         image_size=16, batch=4, attention_heads=2,
                         temb_dim=8)
    return [
        ("transformer", transformer.trace_training_step(tcfg)),
        ("it32_scan", transformer.trace_inference(icfg)),
        ("gns", gns_mod.trace_training_step(gcfg)),
        ("unet", unet_mod.trace_training_step(ucfg)),
    ]


CASES = _cases()


SEARCH = dict(device=TPU_V3, budget=10, rollout_depth=2, max_inputs=6,
              seed=0)


@functools.lru_cache(maxsize=None)
def _transformer_search(backend):
    """One fixed-seed transformer search per backend, shared by the pins."""
    return mcts_search(CASES[0][1].function, ShardingEnv(MESH),
                       ["batch", "model"], backend=backend, workers=2,
                       **SEARCH)


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[name for name, _ in CASES])
def test_search_table_matches_reference(case, tmp_path):
    """Every cost a fixed-seed search stored in its transposition table —
    the reported best included — is the reference pipeline's."""
    _, traced = CASES[case]
    result = mcts_search(traced.function, ShardingEnv(MESH),
                         ["batch", "model"], cache_dir=str(tmp_path),
                         **SEARCH)
    table = table_for(str(tmp_path), traced.function, MESH, TPU_V3,
                      ShardingEnv(MESH))
    assert len(table._costs) >= result.evaluations > 1
    assert table._costs[tuple(result.actions)] == result.cost
    for key, cost in table._costs.items():
        assert cost == reference_cost(traced.function, MESH, key, TPU_V3), key


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[name for name, _ in CASES])
def test_evaluator_matches_reference_on_rollback_heavy_chains(case):
    """Seeded key sequences that share, extend and abandon prefixes drive
    the undo stack, the propagation-delta memo and the journal through
    rollbacks; every ``compute`` equals the from-scratch reference."""
    _, traced = CASES[case]
    function = traced.function
    evaluator = Evaluator(function, ShardingEnv(MESH), TPU_V3)
    candidates = sorted(candidate_actions(function, evaluator.root,
                                          ["batch", "model"], 6))
    rng = random.Random(100 + case)
    key = ()
    for _ in range(10):
        if key and rng.random() < 0.4:
            key = key[:rng.randrange(len(key))]  # abandon a suffix
        else:
            key = tuple(sorted(set(key) | {rng.choice(candidates)}))
        assert evaluator.compute(key) == reference_cost(
            function, MESH, key, TPU_V3), key


@pytest.mark.parametrize("backend", ["serial", "batched", "process"])
def test_undo_identical_across_backends(backend):
    _, traced = CASES[0]
    result = _transformer_search(backend)
    reference = _transformer_search("serial")
    assert result.actions == reference.actions
    assert result.cost == reference.cost
    assert result.cost == reference_cost(traced.function, MESH,
                                         result.actions, TPU_V3)


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[name for name, _ in CASES])
def test_incremental_estimate_field_exact(case):
    """estimate_incremental == the materializing pipeline on every
    CostEstimate field (bit-identical floats) over a randomized
    checkpoint/rollback chain."""
    _, traced = CASES[case]
    function = traced.function
    env = ShardingEnv(MESH)
    propagate(function, env)
    env.enable_journal()
    incremental = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    candidates = candidate_actions(function, env, ["batch", "model"], 6)
    if not candidates:
        pytest.skip("no candidates")
    rng = random.Random(case)
    tokens = []
    reference = {}  # env state -> materialized estimate (rollbacks revisit)
    for step in range(30):
        if rng.random() < 0.55 and len(tokens) < 4:
            token = env.checkpoint()
            try_apply_action(function, env, rng.choice(candidates))
            propagate(function, env, incremental=True)
            tokens.append(token)
        elif tokens:
            index = rng.randrange(len(tokens))
            env.rollback(tokens[index])
            del tokens[index:]
        fast = incremental.estimate_incremental(env, env.drain_journal())
        slow = reference_estimate(function, env, TPU_V3, reference)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow), step


def test_incremental_falls_back_on_unreliable_journal():
    """``estimate_incremental`` must not trust ``changed_values`` the
    write journal cannot vouch for: a disabled journal, a third-party
    drain mid-search, or rollback restorations the caller never drained
    all force the exact full pass instead of silently reusing stale
    segments."""
    _, traced = CASES[0]
    function = traced.function
    env = ShardingEnv(MESH)
    propagate(function, env)
    inc = costmodel.StreamingEstimator(function, MESH, TPU_V3)
    candidates = candidate_actions(function, env, ["batch", "model"], 8)
    assert len(candidates) >= 4

    def apply(index):
        try_apply_action(function, env, candidates[index])
        propagate(function, env, incremental=True)

    def check(fast):
        assert dataclasses.asdict(fast) == dataclasses.asdict(
            reference_estimate(function, env, TPU_V3))

    # Journal disabled: an (empty) changed-values claim is unverifiable,
    # so it must not mask the writes that happened since the last run.
    baseline = inc.estimate_incremental(env, None)
    apply(0)
    fast = inc.estimate_incremental(env, [])
    check(fast)
    assert dataclasses.asdict(fast) != dataclasses.asdict(baseline)

    # In-protocol fast path: enabled journal, caller passes its own
    # fresh drain — trusted, and exact.
    env.enable_journal()
    token = env.checkpoint()
    apply(1)
    check(inc.estimate_incremental(env, env.drain_journal()))

    # Third-party drain mid-search: someone else consumes the journal, so
    # the caller's next drain misses that window entirely.
    apply(2)
    stolen = env.drain_journal()
    assert stolen
    apply(3)
    partial = env.drain_journal()  # covers candidates[3] only
    check(inc.estimate_incremental(env, partial))

    # ... and an *empty* post-theft drain is just as untrustworthy: the
    # stolen window held real writes the caller never saw.
    apply(len(candidates) - 1)
    stolen = env.drain_journal()
    assert stolen
    check(inc.estimate_incremental(env, env.drain_journal()))

    # Rollback restorations hidden by a third-party drain: the caller
    # drains after the theft, sees nothing, and must still get the
    # rolled-back state's exact estimate.
    env.rollback(token)
    assert env.drain_journal()  # third party consumes the restorations
    check(inc.estimate_incremental(env, env.drain_journal()))


def test_undo_evaluator_reuses_propagation_deltas():
    """Re-extending a rolled-back prefix must replay the memoized write
    delta instead of re-running propagation."""
    _, traced = CASES[0]
    function = traced.function
    env = ShardingEnv(MESH)
    evaluator = Evaluator(function, env, TPU_V3)
    candidates = candidate_actions(function, evaluator.root,
                                   ["batch", "model"], 6)
    key_a = (candidates[0],)
    key_b = (candidates[1],)
    evaluator.compute(key_a)
    evaluator.compute(key_b)  # rolls back key_a
    stats = evaluator.root.stats
    calls_before = stats.propagate_calls
    evaluator.compute(key_a)  # re-extends: replay, no propagate
    assert stats.propagate_calls == calls_before


def test_process_backend_matches_serial():
    """Workers with nothing but their own plan/chain memos land on the
    serial result."""
    process = _transformer_search("process")
    serial = _transformer_search("serial")
    assert process.actions == serial.actions
    assert process.cost == serial.cost


def test_candidate_actions_total_order_and_dedupe():
    from repro.ir.function import FunctionBuilder

    builder = FunctionBuilder("cands")
    small = builder.param((4, 8), name="small")
    big = builder.param((8, 8), name="big")
    tied = builder.param((8, 8), name="tied")  # same nbytes as big
    env = ShardingEnv(MESH)
    actions = candidate_actions(builder.function, env, ["batch"], 48)
    assert all(kind == 0 for kind, _, _, _ in actions)  # no tag points here
    params = [index for _, index, _, _ in actions]
    # nbytes descending, index-ascending tie-break, smaller param last.
    assert params == [1, 1, 2, 2, 0, 0]
    # Duplicate param objects are enumerated once, at the smallest index.
    builder2 = FunctionBuilder("dup")
    shared = builder2.param((8, 8), name="w")
    builder2.function.params.append(shared)
    builder2.function.input_names.append("w_again")
    dup_actions = candidate_actions(builder2.function, env, ["batch"], 48)
    assert {index for _, index, _, _ in dup_actions} == {0}
