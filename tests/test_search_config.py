"""The search's configuration surface: one ``SearchConfig``, nothing else.

Guards the shape the consolidation left behind — the 13 fields and their
order (the first six are the plan server's store key, so reordering them
would orphan every saved plan), the two constructors that used to carry
path-selection flags, wire compatibility with clients that still send
those flags, transposition logs left on disk under the retired exact
fingerprint — and pins that a misspelled or ill-typed option is an
error where the tactic is built, not a silently ignored keyword.
"""

import dataclasses
import inspect
import os
import warnings

import numpy as np
import pytest

from repro import AutomaticPartition, Mesh
from repro.auto import SearchConfig, rpc
from repro.auto import server as server_mod
from repro.auto.evaluator import Evaluator
from repro.auto.search import mcts_search
from repro.core.sharding import ShardingEnv
from repro.sim import TPU_V3, costmodel

from conftest import build_matmul_chain

PLAN_IDENTITY = ("budget", "rollout_depth", "seed", "max_inputs",
                 "max_tag_points", "prune")
EXECUTION = ("backend", "workers", "wave_size", "cache_dir", "plan_server",
             "restart_budget", "rpc_timeout_s")


class TestSurface:
    def test_fields_and_order(self):
        names = tuple(f.name for f in dataclasses.fields(SearchConfig))
        assert names == PLAN_IDENTITY + EXECUTION
        assert tuple(SearchConfig().plan_identity()) == PLAN_IDENTITY

    def test_params_key_matches_stores_written_before_the_config(
            self, tmp_path):
        """A transposition log named by the retired exact fingerprint
        (literal lines of one, with a ``"g"`` tree-statistics record) sits
        in ``cache_dir``: no program names it any more, so the search runs
        cold, opens its own ``tt_<digest>_<layout>.jsonl`` and leaves the
        old file byte-identical.  The params key is still the plan
        identity, execution fields excluded."""
        old = tmp_path / "tt_ae55324a71726618b6227ab65e3c1ad5.jsonl"
        old.write_text(
            '{"k": [], "c": 3.437503278258589e-09}\n'
            '{"k": [[0, 0, 0, "B"]], "c": 8.593758195646473e-10}\n'
            '{"g": [0, "param", 0, "B", [[[], []], [], []]], '
            '"n": 1, "t": 0.75}\n'
            '{"pa": [0, 0, 0, "B"], "ps": "ab441e3efd397b15d5b4c5d6"}\n')
        before = old.read_bytes()
        function, _ = build_matmul_chain()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = mcts_search(function, ShardingEnv(Mesh({"B": 4, "M": 2})),
                                 ["B", "M"], budget=8, seed=0,
                                 cache_dir=str(tmp_path))
        assert result.evaluations > 0 and result.warm_cache_hits == 0
        assert (result.actions, result.cost) == (
            [(0, 0, 0, "B")], 8.593758195646473e-10)
        assert old.read_bytes() == before
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2 and old.name in names
        pkey = server_mod.params_key(["B", "M"], SearchConfig())
        assert pkey == (("B", "M"), 24, 3, 0, 48, 16, True)
        # Execution fields never enter the key.
        assert pkey == server_mod.params_key(
            ["B", "M"], SearchConfig(backend="process", workers=4,
                                     cache_dir="/tmp/x"))

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
        {"cache_dir": 7}, {"rpc_timeout_s": "high"},
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

    @pytest.mark.parametrize("name, zero", [
        ("workers", 0), ("wave_size", 0), ("rpc_timeout_s", 0.0)])
    def test_zero_execution_option_raises_naming_it(self, name, zero):
        """Zero workers, an empty wave or a zero deadline is rejected, not
        read as the default (nor, for the deadline, as a non-blocking
        socket); ``None`` keeps meaning the default, and a restart budget
        of zero stays legal."""
        with pytest.raises(ValueError, match=name):
            SearchConfig(**{name: zero})
        assert getattr(SearchConfig(**{name: None}), name) is None
        assert SearchConfig(restart_budget=0).restart_budget == 0

    def test_retired_action_space_is_an_unknown_option(self):
        """One action vocabulary: naming the deleted option is the usual
        unknown-option error, wherever it is passed.  So is the retired
        UCT constant."""
        with pytest.raises(TypeError, match="exploration"):
            AutomaticPartition(["d"], {"exploration": 0.5})
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
            ["d"], {"budget": 4, "rpc_timeout_s": 1, "device": TPU_V3,
                    "prune": False},
            search_backend="batched")
        assert tactic.options["backend"] == "batched"
        # Only counts and timeouts must be non-negative, and numpy scalars
        # are the numbers they hold (same seed stream, same store key).
        config = SearchConfig(seed=-1, rpc_timeout_s=np.float32(0.5),
                              budget=np.int64(3))
        assert config == SearchConfig(seed=-1, budget=3, rpc_timeout_s=0.5)
        assert type(config.budget) is int
        assert type(config.rpc_timeout_s) is float
