"""The persistent transposition table: log names, round-trips, warm starts.

The on-disk cache is append-only (write-lean: a hit never touches disk, a
fully-warm rerun leaves the file byte-identical) and named by the
program's canonical ``(digest, layout)`` — the traced function as written
(up to tag names) + mesh + device + initial shardings — so costs can never
leak across programs.
"""

import os
import shutil

import pytest

from repro import AutomaticPartition, Mesh, ShapeDtype, partir_jit, trace
from repro.core.sharding import ShardingEnv
from repro.auto.cache import TranspositionTable
from repro.auto.fingerprint import canonicalize
from repro.auto.search import mcts_search
from repro.sim import DeviceSpec
from repro.trace import ops

from conftest import build_matmul_chain

TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)
MESH = Mesh({"B": 4, "M": 2})


def identity(function, mesh=MESH, device=TINY_DEVICE, env=None):
    canon = canonicalize(function, mesh, device, env)
    return canon.digest, canon.layout


class TestFingerprint:
    """A log is named by ``(digest, layout)``: the program as written,
    up to tag names, in its search context."""

    def test_stable_across_retraces(self):
        """Structurally identical functions fingerprint identically, even
        though every Value uid and object id differs."""
        first, _ = build_matmul_chain()
        second, _ = build_matmul_chain()
        assert identity(first) == identity(second)

    def test_sensitive_to_structure_mesh_device_and_env(self):
        function, _ = build_matmul_chain()
        base = identity(function)
        # Different shapes -> different program.
        other, _ = build_matmul_chain(m=512)
        assert identity(other) != base
        # Different mesh.
        assert identity(function, Mesh({"B": 8})) != base
        # Different device.
        fat = DeviceSpec("fat", peak_flops=1e12, hbm_bytes=16e9,
                         link_bandwidth=1e11)
        assert identity(function, device=fat) != base
        # A blank env is the start state of no env; a manual tactic that
        # ran first is another start state.
        env = ShardingEnv(MESH)
        assert identity(function, env=env) == base
        env.set_sharding(function.params[0],
                         env.sharding(function.params[0]).with_tile(0, "B"))
        assert identity(function, env=env) != base


class TestTableRoundTrip:
    def test_write_reload_warm_counters(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        table = TranspositionTable(path)
        table.store(((0, 0, 0, "B"),), 1.5)
        table.store(((0, 0, 0, "B"), (0, 1, 1, "M")), 2.5)
        table.store((), 9.0)
        table.flush()

        reloaded = TranspositionTable(path)
        assert len(reloaded) == 3
        assert reloaded.warm_entries == 3
        assert reloaded.hits == 0 and reloaded.warm_hits == 0
        assert reloaded.lookup(((0, 0, 0, "B"),)) == 1.5
        assert reloaded.lookup(()) == 9.0
        assert reloaded.hits == 2 and reloaded.warm_hits == 2
        # Fresh entries are hits but not warm hits.
        reloaded.store(((0, 2, 0, "B"),), 3.0)
        assert reloaded.lookup(((0, 2, 0, "B"),)) == 3.0
        assert reloaded.hits == 3 and reloaded.warm_hits == 2

    def test_hits_never_rewrite_the_log(self, tmp_path):
        """Append-only contract: lookups (and flushes with nothing new)
        leave the file byte-identical."""
        path = str(tmp_path / "tt.jsonl")
        table = TranspositionTable(path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.flush()
        raw = open(path, "rb").read()

        reloaded = TranspositionTable(path)
        for _ in range(10):
            assert reloaded.lookup(((0, 0, 0, "B"),)) == 1.0
        reloaded.store(((0, 0, 0, "B"),), 123.0)  # duplicate: ignored
        reloaded.flush()
        assert open(path, "rb").read() == raw

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        table = TranspositionTable(path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.flush()
        with open(path, "a") as handle:
            handle.write('{"k": [[1, 0, "M"]], "c": 2.')  # crashed writer
        reloaded = TranspositionTable(path)
        assert len(reloaded) == 1
        assert reloaded.peek(((0, 0, 0, "B"),)) == 1.0


class TestWarmStartSearch:
    def test_second_search_warm_starts(self, tmp_path):
        """A warm second call replays the cold call's rollouts from the
        persistent store (warm transposition hits, nothing evaluated), and
        its incumbent is seeded from the table's best entry, so the warm
        result can never be worse than the cold one."""
        function, _ = build_matmul_chain()
        kwargs = dict(device=TINY_DEVICE, budget=16, seed=1,
                      cache_dir=str(tmp_path))
        cold = mcts_search(function, ShardingEnv(MESH), ["B", "M"], **kwargs)
        assert cold.warm_cache_hits == 0
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].startswith("tt_")

        warm = mcts_search(function, ShardingEnv(MESH), ["B", "M"], **kwargs)
        assert warm.warm_cache_hits > 0
        assert warm.cost <= cold.cost
        assert warm.evaluations + warm.cache_hits >= cold.evaluations

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_same_config_rerun_is_a_replay(self, tmp_path, backend):
        """What ``cache_dir`` means: a rerun of the same (function, mesh,
        device, start state, config) evaluates nothing, returns the same
        plan and leaves the log byte-identical."""
        function, _ = build_matmul_chain()
        budget = 16
        kwargs = dict(device=TINY_DEVICE, budget=budget, seed=1,
                      backend=backend, workers=2, cache_dir=str(tmp_path))
        cold = mcts_search(function, ShardingEnv(MESH), ["B", "M"], **kwargs)
        assert cold.evaluations > 0 and cold.backend == backend
        (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
        with open(path, "rb") as handle:
            before = handle.read()

        warm = mcts_search(function, ShardingEnv(MESH), ["B", "M"], **kwargs)
        assert warm.backend == backend
        assert warm.evaluations == 0
        assert warm.cache_hits >= budget
        assert (warm.actions, warm.cost) == (cold.actions, cold.cost)
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_same_trajectory_without_priors_appends_nothing(self, tmp_path):
        """The log holds cost and probe records only, and a warm rerun
        replays the identical trajectory: zero evaluations, and the cost
        records stay byte-identical (the write-lean contract)."""
        function, _ = build_matmul_chain()
        kwargs = dict(device=TINY_DEVICE, budget=16, seed=1,
                      cache_dir=str(tmp_path))
        cold = mcts_search(function, ShardingEnv(MESH), ["B", "M"], **kwargs)
        (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert all("\"k\"" in line or "\"pa\"" in line for line in lines)

        warm = mcts_search(function, ShardingEnv(MESH), ["B", "M"], **kwargs)
        assert warm.actions == cold.actions and warm.cost == cold.cost
        assert warm.evaluations == 0
        assert warm.warm_cache_hits > 0
        with open(path) as handle:
            assert [line for line in handle if line.strip()] == lines

    def test_cache_dir_does_not_change_results(self, tmp_path):
        function, _ = build_matmul_chain()
        plain = mcts_search(function, ShardingEnv(MESH), ["B", "M"],
                            device=TINY_DEVICE, budget=16, seed=4)
        cached = mcts_search(function, ShardingEnv(MESH), ["B", "M"],
                             device=TINY_DEVICE, budget=16, seed=4,
                             cache_dir=str(tmp_path))
        assert cached.actions == plain.actions
        assert cached.cost == plain.cost
        assert cached.evaluations == plain.evaluations

    def test_different_mesh_gets_a_different_cache_file(self, tmp_path):
        function, _ = build_matmul_chain()
        mcts_search(function, ShardingEnv(MESH), ["B"], device=TINY_DEVICE,
                    budget=4, cache_dir=str(tmp_path))
        mcts_search(function, ShardingEnv(Mesh({"B": 8})), ["B"],
                    device=TINY_DEVICE, budget=4, cache_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2

    def test_alpha_renamed_clone_replays_a_copy_of_the_cold_log(
            self, tmp_path):
        """Renaming a tag names the same program, so the renamed trace
        opens the cold run's log (copied elsewhere) and replays it:
        nothing evaluated, the cold plan returned."""
        def tagged_mlp(name):
            return trace(
                lambda x, w1, w2: ops.reduce_sum(ops.tag(x @ w1, name) @ w2),
                ShapeDtype((64, 16)), ShapeDtype((16, 32)),
                ShapeDtype((32, 16))).function

        kwargs = dict(device=TINY_DEVICE, budget=16, seed=0)
        cold_dir, copy_dir = tmp_path / "cold", tmp_path / "copy"
        cold = mcts_search(tagged_mlp("hidden"), ShardingEnv(MESH),
                           ["B", "M"], cache_dir=str(cold_dir), **kwargs)
        assert cold.evaluations > 0
        shutil.copytree(cold_dir, copy_dir)
        renamed = mcts_search(tagged_mlp("renamed"), ShardingEnv(MESH),
                              ["B", "M"], cache_dir=str(copy_dir), **kwargs)
        assert renamed.evaluations == 0
        assert renamed.warm_cache_hits > 0
        assert (renamed.actions, renamed.cost) == (cold.actions, cold.cost)
        assert os.listdir(copy_dir) == os.listdir(cold_dir)


class TestPartirJitWarmStart:
    def _traced(self):
        def f(state, x):
            h = ops.relu(x @ state["w1"])
            return ops.reduce_sum(h @ state["w2"])

        return trace(
            f,
            {"w1": ShapeDtype((64, 64)), "w2": ShapeDtype((64, 64))},
            ShapeDtype((32, 64)),
        )

    def test_repeated_partir_jit_calls_warm_start(self, tmp_path):
        """The acceptance scenario: a second partir_jit over the same
        traced function with cache_dir set reports warm transposition
        hits and reaches the same schedule."""
        mesh = Mesh({"batch": 4, "model": 2})

        def run():
            traced = self._traced()
            tactic = AutomaticPartition(
                ["batch", "model"],
                {"budget": 12, "device": TINY_DEVICE},
                cache_dir=str(tmp_path),
            )
            _, metadata = partir_jit(traced, mesh, [tactic],
                                     device=TINY_DEVICE,
                                     estimate_per_tactic=False)
            return tactic.last_search, metadata

        cold, cold_meta = run()
        warm, warm_meta = run()
        assert cold.warm_cache_hits == 0
        assert warm.warm_cache_hits > 0
        assert warm.evaluations == 0
        assert (warm.actions, warm.cost) == (cold.actions, cold.cost)

    def test_search_backend_option_is_threaded(self):
        mesh = Mesh({"batch": 4, "model": 2})
        traced = self._traced()
        tactic = AutomaticPartition(
            ["batch", "model"],
            {"budget": 6, "device": TINY_DEVICE},
            search_backend="batched",
        )
        _, _ = partir_jit(traced, mesh, [tactic], device=TINY_DEVICE,
                          estimate_per_tactic=False)
        assert tactic.last_search is not None
        assert tactic.last_search.backend == "batched"


class TestCompaction:
    def _fill(self, path, keys, duplicates=1, torn_tail=False):
        with open(path, "w") as handle:
            for _ in range(duplicates):
                for index, key in enumerate(keys):
                    record = {"k": [list(a) for a in key],
                              "c": float(index) + duplicates * 0.001}
                    import json
                    handle.write(json.dumps(record) + "\n")
            if torn_tail:
                handle.write('{"k": [[0, 0, "B"')  # crashed writer

    def test_compact_preserves_hits_and_values(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        keys = [((0, i, 0, "B"),) for i in range(8)]
        # 5 generations of duplicate records + a torn tail.
        self._fill(path, keys, duplicates=5, torn_tail=True)
        before = TranspositionTable(path)
        snapshot = {key: before.peek(key) for key in keys}
        before.compact()
        after = TranspositionTable(path)
        assert len(after) == len(keys)
        for key in keys:
            assert after.lookup(key) == snapshot[key]
        assert after.hits == len(keys)
        # The compacted log holds exactly one line per key, all parseable.
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == len(keys)

    def test_compact_and_store_save_share_the_crash_safe_rewrite(
            self, tmp_path, monkeypatch):
        """Compaction goes temp-write -> fsync -> rename -> directory
        fsync (``cache.replace_file``): a power cut cannot publish an
        empty log."""
        events = []
        for name in ("fsync", "replace"):
            real = getattr(os, name)
            monkeypatch.setattr(
                os, name, lambda *args, _real=real, _name=name:
                (events.append(_name), _real(*args))[1])
        table = TranspositionTable(str(tmp_path / "tt.jsonl"))
        table.store(((0, 0, 0, "B"),), 1.0)
        table.compact()
        assert events == ["fsync", "replace", "fsync"]
        assert os.listdir(tmp_path) == ["tt.jsonl"]

    def test_compact_handles_torn_tail_only_file(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        with open(path, "w") as handle:
            handle.write('{"k": [[0, 0, "B"')
        table = TranspositionTable(path)
        assert len(table) == 0
        table.compact()
        assert os.path.getsize(path) == 0
        assert TranspositionTable(path).lookup(((0, 0, "B"),)) is None

    def test_auto_compaction_threshold(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        keys = [((0, i, 0, "B"),) for i in range(4)]
        self._fill(path, keys, duplicates=4)
        # Small file: high duplicate ratio alone must NOT rewrite (the
        # append-only steady state stays write-lean).
        size_before = os.path.getsize(path)
        table = TranspositionTable(path)
        assert table.compactions == 0
        assert os.path.getsize(path) == size_before

        # Force the size threshold down: now load compacts automatically.
        class Eager(TranspositionTable):
            COMPACT_MIN_BYTES = 1

        eager = Eager(path)
        assert eager.compactions == 1
        assert os.path.getsize(path) < size_before
        reloaded = TranspositionTable(path)
        for key in keys:
            assert reloaded.peek(key) == table.peek(key)

    def test_healthy_log_never_rewritten(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        keys = [((0, i, 0, "B"),) for i in range(16)]
        self._fill(path, keys, duplicates=1)
        size_before = os.path.getsize(path)

        class Eager(TranspositionTable):
            COMPACT_MIN_BYTES = 1

        table = Eager(path)
        assert table.compactions == 0
        assert os.path.getsize(path) == size_before

    def test_store_after_compaction_appends(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        keys = [((0, i, 0, "B"),) for i in range(3)]
        self._fill(path, keys, duplicates=3)
        table = TranspositionTable(path)
        table.compact()
        table.store(((0, 99, 1, "M"),), 1.25)
        table.flush()
        reloaded = TranspositionTable(path)
        assert reloaded.peek(((0, 99, 1, "M"),)) == 1.25
        for key in keys:
            assert reloaded.peek(key) == table.peek(key)


class TestCorruptLog:
    def test_mid_file_garbage_warns_and_keeps_intact_records(self, tmp_path):
        path = str(tmp_path / "tt.jsonl")
        table = TranspositionTable(path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.store(((0, 1, 0, "B"),), 2.0)
        table.flush()
        lines = open(path).read().splitlines()
        lines.insert(1, "{not json at all")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

        with pytest.warns(RuntimeWarning, match="corrupt mid-file"):
            reloaded = TranspositionTable(path)
        assert len(reloaded) == 2
        assert reloaded.peek(((0, 0, 0, "B"),)) == 1.0
        assert reloaded.peek(((0, 1, 0, "B"),)) == 2.0

    def test_torn_tail_stays_silent(self, tmp_path, recwarn):
        """A garbled *final* line is the expected crashed-writer signature
        — skipped without any warning (the original torn-tail contract)."""
        path = str(tmp_path / "tt.jsonl")
        table = TranspositionTable(path)
        table.store(((0, 0, 0, "B"),), 1.0)
        table.flush()
        with open(path, "a") as handle:
            handle.write('{"k": [[0, 1, 0, "M"]], "c": 2.')
        reloaded = TranspositionTable(path)
        assert len(reloaded) == 1
        assert not [w for w in recwarn.list
                    if "corrupt" in str(w.message)]
