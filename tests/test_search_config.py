"""The search's configuration surface: one ``SearchConfig``, nothing else.

Guards the shape the consolidation left behind — the 14 fields and their
order (the first seven are the plan server's store key, so reordering them
would orphan every saved plan), the two constructors that used to carry
path-selection flags, wire compatibility with clients that still send
those flags, files on disk written while the rollout prior and the action
space were options — and pins that a misspelled or ill-typed option is an
error where the tactic is built, not a silently ignored keyword.
"""

import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from repro import AutomaticPartition, Mesh
from repro.auto import PlanStore, SearchConfig, TranspositionTable, rpc
from repro.auto import server as server_mod
from repro.auto.evaluator import Evaluator
from repro.auto.search import mcts_search
from repro.core.sharding import ShardingEnv
from repro.sim import TPU_V3, costmodel

from conftest import build_matmul_chain

PLAN_IDENTITY = ("budget", "rollout_depth", "exploration", "seed",
                 "max_inputs", "max_tag_points", "prune")
EXECUTION = ("backend", "workers", "wave_size", "cache_dir", "plan_server",
             "restart_budget", "rpc_timeout_s")


class TestSurface:
    def test_fields_and_order(self):
        names = tuple(f.name for f in dataclasses.fields(SearchConfig))
        assert names == PLAN_IDENTITY + EXECUTION
        assert tuple(SearchConfig().plan_identity()) == PLAN_IDENTITY

    def test_params_key_matches_stores_written_before_the_config(
            self, tmp_path):
        """Literal lines in the format of PR 21: a transposition log with
        a ``"g"`` (tree statistics) record between a cost and a probe
        record, and a ``--store`` snapshot whose record carries ``"p"`` and
        a params key ending in the prior mode.  Then two snapshot lines in
        the format written while the action space was a plan-identity
        field (a 9-slot params key, no ``"l"`` layout): the ``"tagged"``
        one still hits, the ``"inputs"`` one is skipped.  Everything loads
        without a warning, a record without a layout serves
        ``"relaxed"``, and both files are rewritten without the retired
        parts."""
        log = str(tmp_path / "tt.jsonl")
        with open(log, "w") as handle:
            handle.write(
                '{"k": [[0, 0, 0, "B"]], "c": 8.593758195646473e-10}\n'
                '{"g": [0, "param", 0, "B", [[[], []], [], []]], '
                '"n": 1, "t": 0.75}\n'
                '{"pa": [0, 0, 0, "B"], "ps": "ab441e3efd397b15d5b4c5d6"}\n')
        snapshot = str(tmp_path / "plans.jsonl")
        with open(snapshot, "w") as handle:
            handle.write(
                '{"key": ["d7bd8e66f96494c6c108032580ca8357", [["B", "M"], '
                '24, 3, 0.5, 0, 48, "tagged", 16, true, "learned"]], '
                '"a": [[0, 0, 0, "B"]], "c": 8.593758195646473e-10, '
                '"p": [[[0, "param", 0, "B", [[[], []], [], []]], 2, 1.5]], '
                '"m": {"backend": "serial", "tree_prior_hits": 5, '
                '"prior_mode": "learned"}}\n'
                '{"key": ["5c1f0e1d2b7a49e38a1e6f0b9d2c4a77", [["B", "M"], '
                '24, 3, 0.5, 0, 48, "tagged", 16, true]], '
                '"a": [[0, 1, 1, "M"]], "c": 2.6425806451612902e-05, '
                '"m": {"backend": "serial", "action_space": "tagged"}}\n'
                '{"key": ["0b9e2f7c3d1a4e6f8a5b7c9d0e1f2a3b", [["B", "M"], '
                '24, 3, 0.5, 0, 48, "inputs", 16, true]], '
                '"a": [[0, 0, 0, "B"]], "c": 4.35e-05, '
                '"m": {"backend": "serial", "action_space": "inputs"}}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = TranspositionTable(log)
            store = PlanStore()
            assert store.load(snapshot) == 2
        assert table.lookup(((0, 0, 0, "B"),)) == 8.593758195646473e-10
        assert table.warm_hits == 1
        assert table.warm_probes() == {
            (0, 0, 0, "B"): "ab441e3efd397b15d5b4c5d6"}
        pkey = server_mod.params_key(["B", "M"], SearchConfig())
        assert pkey == (("B", "M"), 24, 3, 0.5, 0, 48, 16, True)
        layout = ((1, 0, 2), (0, 1), ())
        record, tier = store.lookup(
            "d7bd8e66f96494c6c108032580ca8357", pkey, layout)
        assert tier == "relaxed" and record.actions == ((0, 0, 0, "B"),)
        record, tier = store.lookup(
            "5c1f0e1d2b7a49e38a1e6f0b9d2c4a77", pkey, layout)
        assert tier == "relaxed" and record.actions == ((0, 1, 1, "M"),)
        assert store.lookup(
            "0b9e2f7c3d1a4e6f8a5b7c9d0e1f2a3b", pkey, layout) is None
        # Execution fields never enter the key.
        assert pkey == server_mod.params_key(
            ["B", "M"], SearchConfig(backend="process", workers=4,
                                     cache_dir="/tmp/x"))
        table.compact()
        store.save(snapshot)
        for path, lines in ((log, 2), (snapshot, 2)):
            with open(path) as handle:
                records = [json.loads(line) for line in handle]
            assert len(records) == lines
            assert not any("g" in r or "p" in r for r in records)
        assert all(len(r["key"][1]) == len(pkey) for r in records)

    def test_constructors_carry_no_path_flags(self):
        evaluator = inspect.signature(Evaluator.__init__).parameters
        assert list(evaluator) == ["self", "function", "env", "device",
                                   "table"]
        assert evaluator["table"].default is None
        assert list(inspect.signature(
            costmodel.StreamingEstimator.__init__).parameters) == [
                "self", "function", "mesh", "device"]
        assert not hasattr(costmodel.StreamingEstimator, "estimate")

    def test_eval_init_from_an_older_client_is_accepted(self):
        """Older clients also send the five retired path flags; the
        session ignores them and prices on the one path."""
        function, _ = build_matmul_chain()
        mesh = Mesh({"B": 4, "M": 2})
        expected = Evaluator(function, ShardingEnv(mesh),
                             TPU_V3).evaluate(())
        with server_mod.PlanServer() as server:
            with rpc.connect(rpc.format_address(server.address)) as conn:
                baseline = conn.request({
                    "kind": "eval_init", "function": function,
                    "mesh": mesh, "env": (), "device": TPU_V3,
                    "incremental": False, "memoize": False,
                    "streaming": False, "reconcile_cache": False,
                    "rollout_env": "fork",
                })
        assert baseline == expected


class TestBadOptionsFailAtConstruction:
    def test_misspelled_option_raises_naming_the_fields(self):
        with pytest.raises(TypeError, match=r"bugdet.*valid fields: budget"):
            AutomaticPartition(["d"], {"bugdet": 4})
        function, _ = build_matmul_chain()
        with pytest.raises(TypeError, match="bugdet"):
            mcts_search(function, ShardingEnv(Mesh({"B": 4})), ["B"],
                        bugdet=4)

    @pytest.mark.parametrize("options", [
        {"budget": "4"}, {"budget": True}, {"prune": 1},
        {"cache_dir": 7}, {"exploration": "high"},
    ])
    def test_ill_typed_option_raises(self, options):
        with pytest.raises(TypeError, match=next(iter(options))):
            AutomaticPartition(["d"], options)

    @pytest.mark.parametrize("keywords", [
        {"search_backend": "threads"}, {"options": {"backend": "threads"}},
        {"options": {"rpc_timeout_s": -1.0}}, {"options": {"workers": -1}},
    ])
    def test_bad_value_raises(self, keywords):
        with pytest.raises(ValueError):
            AutomaticPartition(["d"], **keywords)

    def test_retired_action_space_is_an_unknown_option(self):
        """One action vocabulary: naming the deleted option is the usual
        unknown-option error, wherever it is passed."""
        with pytest.raises(TypeError, match="action_space"):
            AutomaticPartition(["d"], {"action_space": "tagged"})
        with pytest.raises(TypeError, match="action_space"):
            AutomaticPartition(["d"], action_space="inputs")
        function, _ = build_matmul_chain()
        with pytest.raises(TypeError, match="action_space"):
            mcts_search(function, ShardingEnv(Mesh({"B": 4})), ["B"],
                        action_space="inputs")

    def test_valid_options_still_build(self):
        tactic = AutomaticPartition(
            ["d"], {"budget": 4, "exploration": 1, "device": TPU_V3},
            search_backend="batched", prune=False)
        assert tactic.options["backend"] == "batched"
        # Only counts and timeouts must be non-negative, and numpy scalars
        # are the numbers they hold (same seed stream, same store key).
        config = SearchConfig(seed=-1, exploration=np.float32(0.5),
                              budget=np.int64(3))
        assert config == SearchConfig(seed=-1, budget=3)
        assert type(config.budget) is int
        assert type(config.exploration) is float
