"""The search's one evaluation path vs the from-scratch reference.

``Evaluator`` (one mutable env + checkpoint/rollback + propagation-delta
replay + the signature-memoized streaming estimator) must price every
canonical action set bit-identically to ``oracle.reference_cost``.  The
reference comparisons live in ``test_chains.py`` (over rollback-heavy
trajectories on every model family, over every key a fixed-seed search
stored, and across scheduler backends); the ids below that name them are
entry points, each running the check that covers it once per session.
The evaluator's and estimator's own mechanisms are tested here directly.
"""

import functools

import pytest

from repro.auto.evaluator import Evaluator, candidate_actions
from repro.core.sharding import ShardingEnv
from repro.models import transformer
from repro.sim import TPU_V3
from test_chains import MESH, SEEDS, check_backend, check_search_table, \
    run_chain

CASES = ["transformer", "it32_scan", "gns", "unet"]


@functools.lru_cache(maxsize=None)
def _transformer():
    return transformer.trace_training_step(transformer.t32(
        num_layers=2, d_model=128, num_heads=4, d_head=32, ffw_dim=256,
        vocab=512, seq_len=32, batch=8)).function


@pytest.mark.parametrize("case", CASES)
def test_search_table_matches_reference(case):
    check_search_table(case)


@pytest.mark.parametrize("case", CASES)
def test_evaluator_matches_reference_on_rollback_heavy_chains(case):
    run_chain(case, 0)


@pytest.mark.parametrize("backend", ["serial", "batched", "process"])
def test_undo_identical_across_backends(backend):
    check_backend(backend)


@pytest.mark.parametrize("case", CASES)
def test_incremental_estimate_field_exact(case):
    run_chain(case, 1 % len(SEEDS))


def test_undo_evaluator_reuses_propagation_deltas():
    """Re-extending a rolled-back prefix must replay the memoized write
    delta instead of re-running propagation."""
    function = _transformer()
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
    check_backend("process")


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
