"""Propagation seeded from a tactic's writes vs whole-function sweeps.

The chains that check it live in ``test_chains.py`` (check 3 there:
equal shardings, equal distinct conflicts and an equal fused collective
sequence, on every model family, after manual tactics, search actions and
rollbacks).  The ids below are entry points into those chains: each runs
the chain of its family that covers it, once per session.
"""

import pytest

from oracle import apply_with_full_sweep
from repro.core.sharding import ShardingEnv
from repro.models.schedules import bp, megatron_mp, zero3
from test_chains import FAMILIES, MESH, SEEDS, run_chain


@pytest.mark.parametrize("seed", range(25))
def test_transformer_chain_equivalence(seed):
    run_chain("transformer", seed % SEEDS["transformer"])


@pytest.mark.parametrize("seed", range(25))
def test_gns_chain_equivalence(seed):
    run_chain("gns", seed % SEEDS["gns"])


def test_incremental_does_less_work():
    """Seeding from a tactic's writes visits fewer ops than sweeping."""
    function = FAMILIES["transformer"].function
    chain = [bp({"tokens": 0, "targets": 0}), megatron_mp(), zero3()]
    seeded, swept = ShardingEnv(MESH), ShardingEnv(MESH)
    for tactic in chain:
        tactic.apply(function, seeded)
        apply_with_full_sweep(tactic, function, swept)
    assert seeded.portable_state(function) == swept.portable_state(function)
    assert seeded.stats.ops_processed < swept.stats.ops_processed
