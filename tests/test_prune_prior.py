"""The action-space condenser, the uniform tree policy, the exact oracle.

They share one contract — *make every rollout count without changing what
a fixed seed means*:

* :mod:`repro.auto.prune` — one propagation probe per candidate buckets
  actions by their fixed point; one (lexicographically smallest)
  representative per bucket survives.  Probing checkpoints and rolls back
  the search's live env, so it must be bit-invisible; signatures persist
  in the transposition log so warm runs never probe.
* :mod:`repro.auto.tree` — expansion is uniform and fed by nothing but
  ``(candidates, seed)``: cold rollout sequences are pinned draw for draw,
  and a warm run replays them identically in every backend.
* :mod:`repro.auto.exact` — branch-and-bound over the condensed space:
  the regret oracle the default-budget MCTS is measured against.
"""

import hashlib
import json
import os
import warnings

import pytest

from repro import Mesh, ShapeDtype, trace
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.auto import search as search_mod
from repro.auto import tree as tree_mod
from repro.auto.evaluator import candidate_actions
from repro.auto.exact import ExactBudgetExceeded, exact_search
from repro.auto.prune import NOOP_SIGNATURE, condense, probe_action
from repro.auto.search import SearchConfig, mcts_search
from repro.sim import DeviceSpec
from repro.trace import ops

from conftest import build_matmul_chain
from oracle import reference_index

TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)
MESH = Mesh({"B": 4, "M": 2})
AXES = ["B", "M"]


def _matmul_sum_traced():
    return trace(lambda w, x: ops.reduce_sum(x @ w),
                 ShapeDtype((64, 64)), ShapeDtype((32, 64)))


def _search(function, **kwargs):
    defaults = dict(device=TINY_DEVICE, budget=24, rollout_depth=2, seed=7)
    defaults.update(kwargs)
    return mcts_search(function, ShardingEnv(MESH), AXES, **defaults)


def _prepared(function):
    """(env at the search's root fixed point, candidate list)."""
    env = ShardingEnv(MESH)
    propagate(function, env)
    return env, candidate_actions(function, env, AXES, 48)


class TestCondenser:
    def test_condense_cuts_without_losing_classes(self):
        function, _ = build_matmul_chain()
        env, candidates = _prepared(function)
        report = condense(function, env, candidates)
        assert 0 < len(report.kept) < len(candidates)
        assert report.total == len(candidates)
        assert set(report.kept) <= set(candidates)
        assert report.probes_run == len(candidates)
        assert report.probes_reused == 0
        # Accounting closes: every candidate is kept, merged into a kept
        # representative's class, or a propagation no-op.
        assert (len(report.kept) + report.dropped_equivalent
                + report.dropped_noop == len(candidates))
        assert report.classes == len(report.kept)

    def test_representative_is_lex_min_of_its_class(self):
        function, _ = build_matmul_chain()
        env, candidates = _prepared(function)
        report = condense(function, env, candidates)
        by_signature = {}
        for action, signature in report.signatures.items():
            by_signature.setdefault(signature, []).append(action)
        for kept in report.kept:
            signature = report.signatures[kept]
            assert signature != NOOP_SIGNATURE
            assert kept == min(by_signature[signature])

    def test_probe_leaves_env_bit_identical(self):
        function, values = build_matmul_chain()
        env, candidates = _prepared(function)
        before = {value: env.sharding(value) for value in values}
        condense(function, env, candidates)
        for value, sharding in before.items():
            # Interned shardings: pointer identity is the strong check.
            assert env.sharding(value) is sharding

    def test_probe_action_matches_manual_delta(self):
        from repro.core.actions import try_apply_action
        from repro.auto.prune import footprint_digest
        function, _ = build_matmul_chain()
        env, candidates = _prepared(function)
        action = candidates[0]
        signature = probe_action(function, env, action)
        value_index = {value: i for i, value in
                       enumerate(reference_index(function)[1])}
        token = env.checkpoint()
        assert try_apply_action(function, env, action)
        propagate(function, env)
        delta = env.writes_since(token)
        env.rollback(token)
        assert delta  # candidate 0 is no propagation no-op on this model
        expected = footprint_digest(
            [(value_index[value], sharding.to_portable())
             for value, sharding in delta]
        )
        assert signature == expected

    def test_warm_signatures_skip_probes_and_change_nothing(self):
        function, _ = build_matmul_chain()
        env, candidates = _prepared(function)
        cold = condense(function, env, candidates)
        warm = condense(function, env, candidates,
                        known_signatures=cold.signatures)
        assert warm.probes_run == 0
        assert warm.probes_reused == len(candidates)
        assert warm.kept == cold.kept
        assert warm.signatures == cold.signatures

    def test_search_prune_flag_reports_condenser_counters(self):
        function, _ = build_matmul_chain()
        pruned = _search(function)
        plain = _search(function, prune=False)
        assert pruned.candidates_kept < pruned.candidates_total
        assert pruned.prune_classes == pruned.candidates_kept
        assert pruned.prune_probes == pruned.candidates_total
        assert plain.candidates_kept == plain.candidates_total
        assert plain.prune_classes == 0 and plain.prune_probes == 0
        # The condensed space still contains this model's optimum.
        assert pruned.cost == plain.cost


class TestProbePersistence:
    def test_second_run_probes_nothing(self, tmp_path):
        function, _ = build_matmul_chain()
        first = _search(function, cache_dir=str(tmp_path))
        second = _search(function, cache_dir=str(tmp_path))
        assert first.prune_probes > 0 and first.prune_probes_reused == 0
        assert second.prune_probes == 0
        assert second.prune_probes_reused == first.prune_probes
        assert second.actions == first.actions
        assert second.cost == first.cost

    def test_probe_records_survive_compaction(self, tmp_path):
        from repro.auto.cache import table_for
        function, _ = build_matmul_chain()
        _search(function, cache_dir=str(tmp_path))
        env = ShardingEnv(MESH)
        table = table_for(str(tmp_path), function, MESH, TINY_DEVICE, env)
        probes = table.warm_probes()
        assert probes
        table.compact()
        reloaded = table_for(str(tmp_path), function, MESH, TINY_DEVICE,
                             env)
        assert reloaded.warm_probes() == probes


class TestTruncationSurfacing:
    def test_caps_are_surfaced_once(self, monkeypatch):
        monkeypatch.setattr(search_mod, "_TRUNCATION_WARNED", False)
        function, _ = build_matmul_chain()
        with pytest.warns(RuntimeWarning, match="enumeration truncated"):
            result = _search(function, max_inputs=1, budget=4)
        assert result.actions_truncated > 0
        # One-shot: the second truncated search only counts.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = _search(function, max_inputs=1, budget=4)
        assert again.actions_truncated == result.actions_truncated

    def test_uncapped_search_reports_zero(self):
        function, _ = build_matmul_chain()
        assert _search(function, budget=4).actions_truncated == 0


#: seed -> (first eight rollout keys, blake2b-8 of ``repr`` of all 24) of a
#: cold ``_search(build_matmul_chain()[0], seed=seed)``, generated at PR 21
#: (with the prior machinery in place, in every prior mode).
COLD_ROLLOUTS = {
    0: ([((0, 0, 0, "B"),), ((0, 0, 1, "B"), (0, 0, 1, "M")),
         ((0, 1, 1, "M"),), ((0, 0, 1, "B"),),
         ((0, 1, 1, "M"), (0, 2, 1, "M")), ((0, 0, 1, "B"), (0, 1, 1, "B")),
         ((0, 1, 1, "B"),), ((0, 0, 0, "M"),)], "b36baeaaaf26ac38"),
    7: ([((0, 0, 0, "M"), (0, 1, 1, "M")), ((0, 0, 1, "B"), (0, 2, 1, "B")),
         ((0, 2, 1, "M"),), ((0, 0, 0, "M"), (0, 0, 1, "M")),
         ((0, 0, 0, "M"), (0, 2, 1, "B")), ((0, 0, 0, "B"),),
         ((0, 0, 0, "B"),), ((0, 1, 1, "B"),)], "4926007b5761f843"),
    11: ([((0, 0, 0, "B"), (0, 1, 1, "B")), ((0, 0, 0, "B"), (0, 2, 1, "B")),
          ((0, 2, 1, "B"), (0, 2, 1, "M")), ((0, 1, 1, "B"), (0, 2, 1, "B")),
          ((0, 0, 0, "B"),), ((0, 1, 1, "M"),), ((0, 0, 1, "M"),),
          ((0, 0, 1, "B"),)], "1824e6fee0881426"),
}


class TestPriorDeterminism:
    def test_warm_runs_agree_across_backends(self, tmp_path):
        function, _ = build_matmul_chain()
        cold = _search(function, cache_dir=str(tmp_path))
        for kwargs in ({"backend": "serial"}, {"backend": "batched"},
                       {"backend": "process", "workers": 2}):
            warm = _search(function, cache_dir=str(tmp_path), **kwargs)
            assert warm.warm_cache_hits > 0, kwargs
            assert (warm.actions, warm.cost) == (cold.actions, cold.cost)

    def test_cold_runs_are_draw_for_draw_uniform(self, monkeypatch):
        """The rollout key sequence of a cold search is the one the
        parent generated: deleting the prior machinery left the uniform
        policy untouched, draw for draw."""
        keys = []
        next_rollout = tree_mod.TreePolicy.next_rollout

        def recording(policy):
            node, key = next_rollout(policy)
            keys.append(key)
            return node, key

        monkeypatch.setattr(tree_mod.TreePolicy, "next_rollout", recording)
        function, _ = build_matmul_chain()
        for seed, (head, digest) in COLD_ROLLOUTS.items():
            del keys[:]
            _search(function, seed=seed)
            assert keys[:len(head)] == head, seed
            assert len(keys) == 24
            assert hashlib.blake2b(repr(keys).encode(),
                                   digest_size=8).hexdigest() == digest, seed


class TestExactOracle:
    @pytest.mark.parametrize("traced_factory", [
        lambda: build_matmul_chain()[0],
        lambda: _matmul_sum_traced().function,
    ])
    def test_mcts_matches_exact_optimum_at_default_budget(
            self, traced_factory):
        function = traced_factory()
        oracle = exact_search(function, ShardingEnv(MESH), AXES,
                              device=TINY_DEVICE)
        found = _search(function)
        assert oracle.nodes > 1
        assert found.cost == oracle.cost  # zero regret on small instances
        # The oracle's witness is minimal: subsets are lex-smaller than
        # their supersets, so no reported action can be dropped for free.
        assert oracle.actions == sorted(set(oracle.actions))

    def test_exact_matches_unpruned_enumeration(self):
        """Condensing is lossless: the certified optimum is the same with
        and without the equivalence pre-pass (the pruned tree is just
        smaller)."""
        function, _ = build_matmul_chain()
        pruned, full = (
            exact_search(function, ShardingEnv(MESH), AXES,
                         device=TINY_DEVICE, config=SearchConfig(prune=prune))
            for prune in (True, False))
        assert pruned.cost == full.cost
        assert pruned.candidates < full.candidates
        assert pruned.prune_classes > 0 and full.prune_classes == 0

    def test_node_budget_raises_instead_of_truncating(self):
        function, _ = build_matmul_chain()
        with pytest.raises(ExactBudgetExceeded):
            exact_search(function, ShardingEnv(MESH), AXES,
                         device=TINY_DEVICE, max_nodes=3)

    def test_exact_contributes_to_the_transposition_log(self, tmp_path):
        function, _ = build_matmul_chain()
        oracle = exact_search(function, ShardingEnv(MESH), AXES,
                              device=TINY_DEVICE,
                              config=SearchConfig(cache_dir=str(tmp_path)))
        log_files = os.listdir(tmp_path)
        assert len(log_files) == 1
        records = [json.loads(line) for line in
                   open(os.path.join(tmp_path, log_files[0]))]
        costs = [r for r in records if "k" in r]
        assert len(costs) == oracle.nodes
        # A warm search adopts the certified optimum outright.
        warm = _search(function, cache_dir=str(tmp_path), budget=4)
        assert warm.cost == oracle.cost
