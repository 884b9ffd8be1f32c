"""The search estimator vs the materializing cost pipeline.

The chains that check it live in ``test_chains.py`` (checks 1 and the
end-of-chain fresh estimator there: every ``CostEstimate`` field exact on
every model family, IT32's scan body included).  The chain ids below are
entry points into those chains: each runs the chain of its family that
covers it, once per session.  The estimator's own reuse contracts are
tested here directly.
"""

import random

import pytest

import oracle
from oracle import assert_estimates_identical, reference_estimate
from repro import Mesh, ShapeDtype, trace
from repro.core import tile
from repro.core.opclass import op_class
from repro.core.propagate import propagate
from repro.core.sharding import Sharding, ShardingEnv
from repro.models.schedules import edge_sharding, zero2, zero3
from repro.sim import TPU_V3, costmodel, memory
from repro.spmd.lower import lower
from repro.trace import ops
from test_chains import FAMILIES, MESH, SEEDS, run_chain


@pytest.mark.parametrize("seed", range(17))
def test_transformer_chain_streaming_identical(seed):
    run_chain("transformer", seed % SEEDS["transformer"])


@pytest.mark.parametrize("seed", range(17))
def test_gns_chain_streaming_identical(seed):
    run_chain("gns", seed % SEEDS["gns"])


@pytest.mark.parametrize("seed", range(17))
def test_unet_chain_streaming_identical(seed):
    run_chain("unet", seed % SEEDS["unet"])


def test_scan_body_streaming_identical():
    run_chain("it32_scan", 0)


def _gns_env(rng):
    function = FAMILIES["gns"].function
    pool = FAMILIES["gns"].pool(rng.choice([zero2, zero3]))
    env = ShardingEnv(MESH)
    for tactic in rng.sample(pool, rng.randint(1, len(pool))):
        tactic.apply(function, env)
    return env


class TestEstimatorMemoization:
    def test_plan_reuse_across_envs_is_exact(self):
        """A StreamingEstimator re-bound to one env after another matches
        the materialized pipeline on each one."""
        function = FAMILIES["gns"].function
        estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
        for seed in range(4):
            env = _gns_env(random.Random(7000 + seed))
            materialized = reference_estimate(function, env, TPU_V3)
            streamed = estimator.estimate_incremental(env)
            assert_estimates_identical(streamed, materialized, seed)

    def test_identical_env_reuses_every_plan(self):
        function = FAMILIES["gns"].function
        env = ShardingEnv(MESH)
        edge_sharding().apply(function, env)
        estimator = costmodel.StreamingEstimator(function, MESH, TPU_V3)
        first = estimator.estimate_incremental(env)
        planned = estimator.ops_planned
        reused = estimator.ops_reused
        second = estimator.estimate_incremental(env)  # forced rebuild
        assert estimator.ops_planned == planned  # nothing re-planned
        assert estimator.ops_reused - reused >= planned
        assert_estimates_identical(first, second)

    @staticmethod
    def _fixed_point(name):
        family = oracle.FAMILIES[name]
        function = oracle.traced(name).function
        env = ShardingEnv(family.mesh)
        for tactic in family.schedule():
            tactic.apply(function, env)
        return function, family.mesh, env

    def test_identical_layers_share_templates(self):
        """One template per plan-table key ``(op class, adjacent iids)``:
        the ops an estimator resolves (all but the transparent tags) build
        one template per distinct key, fewer than there are ops, since the
        layers of one shape share theirs."""
        function, mesh, env = self._fixed_point("transformer.tiny")
        keys = []
        for op in function.ops:
            operand, = op.operands if op.opcode == "tag" else (None,)
            if operand is not None and (env.sharding(operand)
                                        is env.sharding(op.results[0])):
                continue
            keys.append((op_class(op), tuple(
                env.sharding(v).iid for v in (*op.operands, *op.results))))
        estimator = costmodel.StreamingEstimator(function, mesh, TPU_V3)
        assert_estimates_identical(estimator.estimate_incremental(env),
                                   reference_estimate(function, env, TPU_V3))
        assert estimator.ops_planned == len(set(keys)) < len(keys)

    def test_one_moved_result_resolves_one_result_site(self):
        """Result sites key per ``(result index, actual iid, target iid)``:
        an env that moves one function result's sharding resolves that
        result's site alone, and prices exactly."""
        function, mesh, env = self._fixed_point("transformer.tiny")
        estimator = costmodel.StreamingEstimator(function, mesh, TPU_V3)
        estimator.estimate_incremental(env)
        moved = env.copy()
        result = next(r for r in function.results
                      if env.sharding(r) != Sharding.replicated(r.type.rank))
        moved.set_sharding(result, Sharding.replicated(result.type.rank))
        resolved = []
        chain = estimator._chain
        estimator._chain = lambda value, *rest: (
            resolved.append(value), chain(value, *rest))[1]
        assert_estimates_identical(
            estimator.estimate_incremental(moved),
            reference_estimate(function, moved, TPU_V3))
        assert resolved == [result]

    SQUARE = ShapeDtype((8, 8))

    @staticmethod
    def _contracted(fn):
        """``fn(x, w)`` traced, under a fixed point that tiles ``x @ w``'s
        contracting dim: the product carries a pending sum."""
        square = TestEstimatorMemoization.SQUARE
        function = trace(fn, square, square).function
        env = ShardingEnv(Mesh({"batch": 2}))
        tile(env, function.params[0], 1, "batch")
        tile(env, function.params[1], 0, "batch")
        propagate(function, env)
        return function, env

    @staticmethod
    def _checking_peaks(monkeypatch):
        """Make every ``peak_bytes`` call assert the reference scan's
        answer; returns the list of logs checked."""
        peak_bytes = memory.LiveRangeLog.peak_bytes
        checked = []

        def checked_peak(log, result_uids):
            checked.append(log)
            peak = peak_bytes(log, result_uids)
            assert peak == oracle.reference_peak_bytes(log, result_uids)
            return peak

        monkeypatch.setattr(memory.LiveRangeLog, "peak_bytes", checked_peak)
        return checked

    @pytest.mark.parametrize("name", sorted(oracle.FAMILIES))
    def test_peak_is_the_live_range_definition(self, name, monkeypatch):
        """``LiveRangeLog.peak_bytes`` (interval prefix sums) equals the
        reference's scan of every live tensor after every record, on each
        log the estimator and the materializing pipeline fold for every
        family's manual schedule, loop regions included — the two paths
        share the algorithm, so only this check can catch a slip in it."""
        function, mesh, env = self._fixed_point(name)
        checked = self._checking_peaks(monkeypatch)
        assert_estimates_identical(
            costmodel.StreamingEstimator(
                function, mesh, TPU_V3).estimate_incremental(env),
            costmodel.estimate(lower(function, env), TPU_V3))
        assert len(checked) >= 2

    @staticmethod
    def _returned_twice(x, w):
        y = x @ w
        return y, y

    @staticmethod
    def _pending_through_tag(x, w):
        y = x @ w
        return ops.tanh(y), ops.tanh(ops.tag(y, "t"))

    @pytest.mark.parametrize("case", [
        "tag_not_transparent", "returned_twice", "pending_through_tag"])
    def test_tag_and_result_edges_match_the_reference(self, case,
                                                      monkeypatch):
        """The edges the fold resolves by uid: a tag whose operand and
        result disagree (not a fixed point: priced as an op, not an
        alias), a value returned twice (two result sites, one pending
        reduction), and a pending sum consumed both directly and through
        a transparent tag (the lowering reduces it once, since the tag's
        result *is* its operand).  Every log the estimator folds has the
        reference scan's peak."""
        if case == "tag_not_transparent":
            function = trace(lambda x: ops.tanh(ops.tag(x, "t")),
                             self.SQUARE).function
            env = ShardingEnv(Mesh({"batch": 2}))
            tile(env, function.params[0], 1, "batch")
            tile(env, function.ops[0].results[0], 0, "batch")
        else:
            function, env = self._contracted(getattr(self, "_" + case))
        checked = self._checking_peaks(monkeypatch)
        got = costmodel.StreamingEstimator(
            function, env.mesh, TPU_V3).estimate_incremental(env)
        want = reference_estimate(function, env, TPU_V3)
        assert_estimates_identical(got, want, case)
        assert len(checked) == 2
