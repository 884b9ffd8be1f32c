"""``lower`` instantiates fused plans: it equals the unfused emission
fused afterwards, and leaves no pair for Section 6's fusions.

``spmd/lower.py`` decides each reconcile chain once, fused in closed form,
and emits it wherever it recurs.  That is only sound while no fusable
pair straddles two chains (say, a loop tail ending in ``all_gather``
feeding a consumer's ``all_slice``).  So on every ``tests/test_chains.py``
family after each tactic of its schedule, and on every manual model of the
repo's end-to-end benchmark (``benchmarks/e2e/cases.py``) under its full
schedule, this module checks that:

* ``lower(f, env)`` equals ``oracle.reference_fuse(unfused_lower(f,
  env))`` op for op (``oracle.listing``: opcode, canonical attrs, operand
  positions, types and names);
* the two price bit-equal under ``costmodel.estimate``;
* the reference finds no fusable pair in ``lower``'s program, regions
  included: a straddling pair fails here instead of going unfused.

The benchmark's four ``t32x8`` schedules are prefixes of one another, so
the longest one stands for them; the same holds per model.  The chain
families already run the check after every tactic, so a paper-scale model
is checked once, under its full schedule.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest

from oracle import (assert_estimates_identical, fusable_pairs, listing,
                    reference_fuse, unfused_lower)
from repro.core.sharding import ShardingEnv
from repro.models.schedules import zero3
from repro.sim import TPU_V3, costmodel
from repro.spmd import lower

from test_chains import FAMILIES, MESH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _e2e_cases():
    """The benchmark's manual cases, one per model: the longest schedule
    (the others are its prefixes)."""
    spec = importlib.util.spec_from_file_location(
        "e2e_cases", os.path.join(ROOT, "benchmarks", "e2e", "cases.py"))
    cases = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    longest = {}
    for case in cases.manual_cases():
        model = case.id.split(".")[0]
        if (model not in longest
                or len(case.schedule()) > len(longest[model].schedule())):
            longest[model] = case
    return longest


E2E = _e2e_cases()


def _functions(function):
    yield function
    for op in function.ops:
        for region in op.regions:
            yield from _functions(region)


def _check(function, env, context):
    lowered = lower(function, env)
    for fn in _functions(lowered.function):
        assert not fusable_pairs(fn), context
    reference = unfused_lower(function, env)
    reference.function = reference_fuse(reference.function)
    assert listing(lowered.function) == listing(reference.function), context
    assert lowered.input_shardings == reference.input_shardings
    assert lowered.output_shardings == reference.output_shardings
    got = costmodel.estimate(lowered, TPU_V3)
    want = costmodel.estimate(reference, TPU_V3)
    assert_estimates_identical(got, want, context)
    assert dataclasses.asdict(got) == dataclasses.asdict(want), context


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chain_family_lowers_fused(family):
    spec = FAMILIES[family]
    env = ShardingEnv(MESH)
    for step, tactic in enumerate(spec.pool(zero3)):
        tactic.apply(spec.function, env)
        _check(spec.function, env, (step, tactic.name))


@pytest.mark.parametrize("model", sorted(E2E))
def test_e2e_manual_model_lowers_fused(model):
    case = E2E[model]
    function = case.build().function
    env = ShardingEnv(case.mesh)
    for tactic in case.schedule():
        tactic.apply(function, env)
    _check(function, env, case.id)
