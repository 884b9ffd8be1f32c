"""The settled rule is exact: dropping an op's self-revisit changes only
visit counts.

``repro.core.propagate`` re-enqueues an op after a visit that wrote only
when the visit was not *settled*.  ``tests/oracle.py::RevisitingPropagator``
always re-enqueues it.  For every scenario below, both schedules run on
one function: the final shardings and the ``(kind, op, axis, detail)``
event list must be equal, and the kernel may not visit more.  Covered:
every golden family under its schedule (seeded and full-sweep), the GSPMD
baseline (its greedy conflict policy), every condenser candidate's probe
on ``transformer.tiny`` and on ``pm.tiny`` (loops), and one hand-built
program per shape the rule must not call settled.
"""
import importlib

import pytest

from repro import ShapeDtype, trace
from repro.auto.evaluator import candidate_actions
from repro.baselines import gspmd
from repro.core.actions import try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import Sharding, ShardingEnv
from repro.mesh import Mesh
from repro.models import transformer
from repro.trace import ops

from oracle import RevisitingPropagator, apply_with_full_sweep, revisiting
from test_propagation_golden import CASES, GSPMD_ANNOTATIONS, MESH

# (``repro.core.propagate`` the attribute is the function.)
propagate_mod = importlib.import_module("repro.core.propagate")


def _events(env, since=0):
    return [(event.kind, id(event.op), event.axis, event.detail)
            for event in env.events[since:]]


def _outcome(function, env):
    return env.portable_state(function), _events(env)


def _both(monkeypatch, scenario):
    """``scenario()`` -> ``(outcome, visits)``, run on the kernel and then
    on the revisiting oracle; asserts equal outcomes and no extra visits,
    and returns both visit counts."""
    kernel, kernel_visits = scenario()
    with monkeypatch.context() as patch:
        patch.setattr(propagate_mod, "Propagator", RevisitingPropagator)
        patch.setattr(gspmd, "_GspmdPropagator",
                      revisiting(gspmd._GspmdPropagator))
        oracle, oracle_visits = scenario()
    assert kernel == oracle
    assert kernel_visits <= oracle_visits
    return kernel_visits, oracle_visits


@pytest.mark.parametrize("sweep", [True, False],
                         ids=["scratch", "incremental"])
@pytest.mark.parametrize("family", sorted(CASES))
def test_golden_schedules(monkeypatch, family, sweep):
    build, mesh, schedule = CASES[family]
    function = build().function

    def scenario():
        env = ShardingEnv(mesh)
        for tactic in schedule():
            if sweep:
                apply_with_full_sweep(tactic, function, env)
            else:
                tactic.apply(function, env)
        return _outcome(function, env), env.stats.ops_processed

    kernel, oracle = _both(monkeypatch, scenario)
    assert kernel < oracle


def test_gspmd_baseline(monkeypatch):
    """Greedy resolution applies one of several extendable factors; a
    revisit may apply another, so such a visit is never settled."""
    function = transformer.trace_training_step(transformer.tiny()).function

    def scenario():
        env = gspmd.gspmd_partition(function, MESH, GSPMD_ANNOTATIONS)
        return _outcome(function, env), env.stats.ops_processed

    _both(monkeypatch, scenario)


@pytest.mark.parametrize("family", ["transformer.tiny", "pm.tiny"])
def test_condenser_probes(monkeypatch, family):
    build, mesh, _ = CASES[family]
    function = build().function

    def scenario():
        """The condenser's probe, with its event list kept."""
        root = ShardingEnv(mesh)
        propagate(function, root)
        outcomes = [_outcome(function, root)]
        for action in candidate_actions(function, root, mesh.axis_names):
            token = root.checkpoint()
            if try_apply_action(function, root, action):
                propagate(function, root)
            outcomes.append((root.writes_since(token),
                             _events(root, token.events_length)))
            root.rollback(token)
        return outcomes, root.stats.ops_processed

    _both(monkeypatch, scenario)


# -- the shapes a visit is not settled on -----------------------------------

def _hand_built(monkeypatch, fn, specs, mesh, shardings):
    """Trace ``fn``, write ``shardings`` (value picker -> sharding) and
    propagate, on both schedules; returns the kernel's env."""
    function = trace(fn, *specs, tag_points=False).function
    envs = []

    def scenario():
        env = ShardingEnv(mesh)
        for pick, sharding in shardings:
            env.set_sharding(pick(function), sharding)
        propagate(function, env)
        envs.append(env)
        return _outcome(function, env), env.stats.ops_processed

    _both(monkeypatch, scenario)
    return function, envs[0]


def _tiled(rank, *tiles):
    sharding = Sharding.replicated(rank)
    for dim, axis in tiles:
        sharding = sharding.with_tile(dim, axis)
    return sharding


def _param(i):
    return lambda function: function.params[i]


def _result(function):
    return function.results[0]


def test_value_used_twice_elementwise(monkeypatch):
    _hand_built(monkeypatch, lambda x: x * x, [ShapeDtype((4, 4))],
                Mesh({"a": 2}), [(_result, _tiled(2, (0, "a")))])


def test_value_used_twice_by_a_dot(monkeypatch):
    """Tiling ``x`` for the dot's row factor is also evidence for its
    contracting factor, through ``x``'s other position: the revisit
    reports the contracting factor blocked."""
    function, env = _hand_built(
        monkeypatch, lambda x: ops.matmul(x, x), [ShapeDtype((4, 4))],
        Mesh({"a": 2}), [(_result, _tiled(2, (0, "a")))])
    assert [event.kind for event in env.events] == ["tile", "blocked"]


def test_loop_carry_passed_twice(monkeypatch):
    """The body passes carry ``a`` through as both of its results, so the
    body param sits in two carry groups: a tile reaching it through the
    second group must still reach the first group's values."""
    def fn(x, y):
        return ops.fori_loop(0, 2, lambda i, a, b: [a, a], [x, y])[1]

    specs = [ShapeDtype((4, 4)), ShapeDtype((4, 4))]
    function, env = _hand_built(monkeypatch, fn, specs, Mesh({"a": 2}),
                                [(_result, _tiled(2, (0, "a")))])
    loop = function.ops[-1]
    assert all(env.sharding(value).dim_axes[0] == ("a",)
               for value in loop.operands + loop.results)


def test_two_extendable_factors_on_one_axis(monkeypatch):
    """Rows and columns of ``c = x @ w`` both have evidence on ``b``: a
    conflict.  Applying rows on the later axis ``a`` leaves ``c``'s rows
    too short for ``b`` as well, so the revisit applies columns on ``b``.
    """
    mesh = Mesh({"c": 2, "b": 2, "a": 2})
    function, env = _hand_built(
        monkeypatch, lambda x, w: ops.matmul(x, w),
        [ShapeDtype((4, 2)), ShapeDtype((2, 2))], mesh,
        [(_param(0), _tiled(2, (0, "b"), (0, "a"))),
         (_param(1), _tiled(2, (1, "b"))),
         (_result, _tiled(2, (0, "c")))])
    assert env.sharding(function.results[0]).dim_axes == (("c", "a"),
                                                          ("b",))
    assert ("conflict", "b") in [(e.kind, e.axis) for e in env.events]


def test_factor_rejected_at_its_reduce_check(monkeypatch):
    """The contracting factor has evidence on ``a`` (``w``'s rows) but the
    result already uses ``a``: rejected without a report.  Applying rows
    tiles ``x`` on ``a``, so the revisit reports the contracting factor
    blocked at ``x``'s columns."""
    function, env = _hand_built(
        monkeypatch, lambda x, w: ops.matmul(x, w),
        [ShapeDtype((4, 4)), ShapeDtype((4, 4))], Mesh({"a": 2}),
        [(_param(1), _tiled(2, (0, "a"))),
         (_result, _tiled(2, (0, "a")))])
    assert [event.kind for event in env.events] == ["tile", "blocked"]
