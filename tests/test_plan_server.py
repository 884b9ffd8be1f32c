"""Partitioning-as-a-service: the plan server, store, and remote backend.

Covers the serving data path end to end — plan requests answered from the
store under one canonical key (hits labelled exact or relaxed by layout,
with index translation for permuted clones), in-flight deduplication of
identical searches (N
concurrent requests -> exactly one search), the ``remote`` rollout
backend's evaluator sessions, and the graceful local fallbacks when no
server is reachable.  Plus the plan store's LRU cap, and the daemon's
one persistent store: a daemon restarted on its predecessor's
``cache_dir`` replays the predecessor's searches from the transposition
logs (in process and through ``python -m repro.auto.server``).
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro import AutomaticPartition, Mesh, partir_jit
from repro.core.sharding import ShardingEnv
from repro.ir.function import FunctionBuilder
from repro.sim import DeviceSpec

from repro.auto import rpc
from repro.auto.evaluator import Evaluator
from repro.auto.planstore import PlanRecord, PlanStore
from repro.auto.search import SearchConfig, mcts_search
from repro.auto.server import PlanServer
from repro.auto.tree import canonical_key

from conftest import build_matmul_chain

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

TINY_DEVICE = DeviceSpec("tiny", peak_flops=1e9, hbm_bytes=200_000,
                         link_bandwidth=1e9)
MESH = Mesh({"B": 4, "M": 2})
SEARCH = dict(device=TINY_DEVICE, budget=8, seed=0)


def chain(order=("x", "w1", "w2")):
    builder = FunctionBuilder("main")
    specs = {"x": (256, 8), "w1": (8, 16), "w2": (16, 8)}
    params = {name: builder.param(specs[name], name=name)
              for name in order}
    hidden = builder.emit1("dot_general", [params["x"], params["w1"]],
                           {"lhs_contract": (1,), "rhs_contract": (0,)})
    out = builder.emit1("dot_general", [hidden, params["w2"]],
                        {"lhs_contract": (1,), "rhs_contract": (0,)})
    return builder.ret(out)


def _search(server=None, function=None, **options):
    """``mcts_search`` of ``function`` (a fresh :func:`chain` by default)
    on ``MESH`` with ``SEARCH``, through ``server`` (a ``PlanServer`` or
    an address) when one is given."""
    if server is not None:
        options["plan_server"] = (server if isinstance(server, str)
                                  else addr(server))
    return mcts_search(chain() if function is None else function,
                       ShardingEnv(MESH), ["B", "M"], **{**SEARCH, **options})


@pytest.fixture
def server():
    with PlanServer() as running:
        yield running


def addr(server):
    return rpc.format_address(server.address)


class TestPlanServing:
    def test_cold_then_exact_hit_bit_identical_to_serial(self, server):
        """First request searches on the server; a structurally identical
        second request hits the exact tier.  Both replies match the local
        serial result bit for bit (actions and cost)."""
        reference = _search()
        cold = _search(server)
        assert cold.plan_source == "server:search"
        assert cold.actions == reference.actions
        assert cold.cost == reference.cost
        warm = _search(server)
        assert warm.plan_source == "server:exact"
        assert warm.actions == reference.actions
        assert warm.cost == reference.cost
        assert warm.evaluations == 0  # nothing searched locally
        assert server.searches_run == 1
        assert server.store.stats()["hits_exact"] == 1

    def test_relaxed_hit_translates_plan_for_permuted_clone(self, server):
        """A permuted-parameter clone hits the relaxed tier; the reply's
        actions are translated into the clone's index space and evaluate
        to exactly the served cost there."""
        first = _search(server)
        clone = chain(order=("w2", "x", "w1"))
        served = _search(server, clone)
        assert served.plan_source == "server:relaxed"
        assert served.cost == first.cost
        evaluator = Evaluator(clone, ShardingEnv(MESH), TINY_DEVICE)
        assert evaluator.evaluate(
            canonical_key(served.actions)) == served.cost
        assert server.searches_run == 1

    def test_plan_request_hashes_the_program_once(self, server,
                                                 monkeypatch):
        """A plan request canonicalizes its program exactly once: the
        digest keys the store, the layout labels the hit, and without a
        ``cache_dir`` the server's search opens no log to name."""
        from repro.auto import cache as cache_mod
        from repro.auto import server as server_mod

        calls = []
        real = server_mod.canonicalize

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "canonicalize", counting)
        monkeypatch.setattr(cache_mod, "canonicalize", counting)
        cold = _search(server)
        assert len(calls) == 1
        warm = _search(server)
        assert len(calls) == 2
        assert (cold.plan_source, warm.plan_source) == \
            ("server:search", "server:exact")

    def test_trace_order_variant_is_relaxed_and_logs_apart(self, server,
                                                          tmp_path):
        """``exp(x)`` traced before or after ``sum(log(x))`` is one graph
        but not one program as written (the two simulate different peak
        memories): the variant's hit reads ``"relaxed"``, and with a
        ``cache_dir`` each spelling scores into its own log."""
        from repro import ShapeDtype, trace
        from repro.trace import ops as tops

        def variant(exp_first):
            def fn(x):
                if exp_first:
                    a = tops.exp(x)
                    b = tops.reduce_sum(tops.log(x))
                else:
                    b = tops.reduce_sum(tops.log(x))
                    a = tops.exp(x)
                return a, b

            return trace(fn, ShapeDtype((1024, 1024))).function

        search = SearchConfig(budget=4, seed=0).plan_identity()
        with rpc.connect(addr(server)) as connection:
            tiers = [connection.request({
                "kind": "plan", "function": variant(first), "mesh": MESH,
                "env": (), "device": TINY_DEVICE, "axes": ["B", "M"],
                "search": search,
            })["tier"] for first in (True, False, True)]
        assert tiers == ["search", "relaxed", "exact"]
        assert server.searches_run == 1
        for first in (True, False):
            mcts_search(variant(first), ShardingEnv(MESH), ["B", "M"],
                        device=TINY_DEVICE, budget=4, seed=0,
                        cache_dir=str(tmp_path))
        assert len([f for f in os.listdir(tmp_path)
                    if f.startswith("tt_")]) == 2

    def test_alpha_renamed_clone_reads_exact_with_populating_actions(
            self, server):
        """Renaming a tag changes neither the canonical digest nor the
        layout, so the hit is exact: the populating search's actions,
        verbatim."""
        from repro import ShapeDtype, trace
        from repro.trace import ops as tops

        def tagged_chain(name):
            return trace(
                lambda x, w1, w2: tops.reduce_sum(
                    tops.tag(x @ w1, name) @ w2),
                ShapeDtype((256, 8)), ShapeDtype((8, 16)),
                ShapeDtype((16, 8))).function

        first = _search(server, tagged_chain("hidden"))
        renamed = _search(server, tagged_chain("renamed"))
        assert first.plan_source == "server:search"
        assert renamed.plan_source == "server:exact"
        assert renamed.actions == first.actions
        assert renamed.cost == first.cost
        assert server.searches_run == 1

    def test_permuted_clone_stays_relaxed_and_reprices(self, server):
        """A permuted clone's layout differs from the populating
        program's on every request — nothing is registered by a hit — and
        its translated actions price to the served cost."""
        first = _search(server)
        clone = chain(order=("w2", "x", "w1"))
        for _ in range(2):
            served = _search(server, clone)
            assert served.plan_source == "server:relaxed"
            assert served.cost == first.cost
        evaluator = Evaluator(clone, ShardingEnv(MESH), TINY_DEVICE)
        assert evaluator.evaluate(
            canonical_key(served.actions)) == served.cost
        assert server.store.stats()["hits_relaxed"] == 2

    def test_repeated_axis_names_the_same_plan(self, server):
        """A raw request for ``["B", "B", "M"]`` is the ``["B", "M"]``
        search (the search itself dedups axes): a store hit, no second
        search, no second record."""
        search = SearchConfig(budget=8, seed=0).plan_identity()
        with rpc.connect(addr(server)) as connection:
            tiers = [connection.request({
                "kind": "plan", "function": chain(), "mesh": MESH,
                "env": (), "device": TINY_DEVICE, "axes": axes,
                "search": search,
            })["tier"] for axes in (["B", "M"], ["B", "B", "M"])]
        assert tiers == ["search", "exact"]
        assert server.searches_run == 1
        assert len(server.store) == 1

    def test_different_search_params_do_not_share_plans(self, server):
        _search(server)
        other = _search(server, seed=3)
        assert other.plan_source == "server:search"
        assert server.searches_run == 2

    def test_ping_and_stats(self, server):
        with rpc.connect(addr(server)) as connection:
            assert connection.request({"kind": "ping"}) == "pong"
            stats = connection.request({"kind": "stats"})
        assert stats["plan_requests"] == 0
        assert stats["store"]["entries"] == 0


class TestServerBounds:
    """The bounds every daemon runs with (``max_connections`` 64,
    ``idle_timeout_s`` 300 s by default), exercised on a bare
    ``RpcServer``."""

    def test_excess_connection_is_closed_at_accept(self):
        server = rpc.RpcServer(lambda: (lambda message: "pong"),
                               max_connections=1)
        server.start()
        try:
            with rpc.connect(server.address, timeout=5.0) as first:
                assert first.request({"kind": "ping"}) == "pong"
                with rpc.connect(server.address, timeout=5.0) as second:
                    with pytest.raises((ConnectionError, OSError,
                                        EOFError)):
                        second.request({"kind": "ping"})
                assert server.connections_rejected == 1
                # The admitted client is unaffected.
                assert first.request({"kind": "ping"}) == "pong"
        finally:
            server.stop()

    def test_silent_connection_is_reaped_and_its_handler_closed(self):
        closed = threading.Event()

        class Handler:
            def __call__(self, message):
                return "pong"

            def close(self):
                closed.set()

        server = rpc.RpcServer(Handler, idle_timeout_s=0.2)
        server.start()
        try:
            with rpc.connect(server.address, timeout=5.0) as silent:
                assert closed.wait(timeout=5.0)
                assert server.connections_reaped == 1
                with pytest.raises((ConnectionError, OSError, EOFError)):
                    silent.request({"kind": "ping"})
        finally:
            server.stop()


class TestInFlightDedup:
    def test_concurrent_identical_requests_search_once(self):
        """The acceptance criterion: N concurrent identical requests
        trigger exactly one server-side search; the joiners block on the
        first request's future and receive the identical plan."""
        calls = []

        def slow_search(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.4)
            return mcts_search(*args, **kwargs)

        with PlanServer(search_fn=slow_search) as server:
            results = [None] * 4

            def request(i):
                results[i] = _search(server)

            threads = [threading.Thread(target=request, args=(i,))
                       for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert server.searches_run == 1
            assert server.dedup_joined == len(results) - 1
        assert len(calls) == 1
        assert sorted(r.plan_source for r in results) == \
            ["server:dedup"] * 3 + ["server:search"]
        assert len({(tuple(map(tuple, r.actions)), r.cost)
                    for r in results}) == 1

    def test_failed_search_recovers_without_poisoning_store(self):
        boom = {"first": True}

        def flaky_search(*args, **kwargs):
            if boom.pop("first", None):
                raise RuntimeError("injected failure")
            return mcts_search(*args, **kwargs)

        with PlanServer(search_fn=flaky_search) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fallback = _search(server)
            # The client fell back to a local search on the server error.
            assert fallback.plan_source == "local"
            assert len(server.store) == 0
            retry = _search(server)
            assert retry.plan_source == "server:search"
            assert retry.actions == fallback.actions


class TestFallbacks:
    def test_unreachable_server_warns_and_searches_locally(self):
        reference = _search()
        with pytest.warns(RuntimeWarning, match="unreachable"):
            result = _search("127.0.0.1:1")
        assert result.plan_source == "local"
        assert result.actions == reference.actions
        assert result.cost == reference.cost

    def test_remote_backend_falls_back_to_serial(self):
        reference = _search()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = _search("127.0.0.1:1", backend="remote")
        assert result.backend == "serial"
        assert result.actions == reference.actions
        assert result.cost == reference.cost

    def test_remote_backend_requires_a_server_address(self):
        with pytest.raises(ValueError, match="plan_server"):
            _search(backend="remote")


class TestRemoteBackend:
    def test_remote_reproduces_serial_best(self, server):
        """The acceptance criterion: the ``remote`` scheduler (rollout
        waves fanned across the server's evaluator sessions) lands on the
        serial backend's best actions and cost for a fixed seed."""
        serial = _search(budget=16, seed=7)
        remote = _search(server, budget=16, seed=7, backend="remote",
                         workers=2)
        assert remote.backend == "remote"
        assert remote.actions == serial.actions
        assert remote.cost == serial.cost
        assert server.eval_sessions == 2
        # The plan store is untouched: remote is a *worker* protocol.
        assert len(server.store) == 0


class TestPartirJit:
    def test_partir_jit_threads_plan_server_through(self, server):
        import numpy as np

        def build():
            function, _ = build_matmul_chain()
            return function

        tactic = AutomaticPartition(
            ["B", "M"], options=dict(budget=6, seed=0, device=TINY_DEVICE))

        from repro.trace.tracer import TracedFunction  # noqa: F401

        # Drive through the real API: trace, partition with a server.
        from repro import ShapeDtype, trace
        from repro.trace import ops as tops

        traced = trace(lambda x, w: tops.reduce_sum(x @ w),
                       ShapeDtype((32, 16)), ShapeDtype((16, 8)))
        fn, meta = partir_jit(traced, MESH, [tactic], device=TINY_DEVICE,
                              plan_server=addr(server))
        assert server.plan_requests == 1
        assert tactic.last_search.plan_source == "server:search"
        # The injection is call-scoped: the tactic object is clean after.
        assert "plan_server" not in tactic.options
        out = fn(np.ones((32, 16), np.float32),
                 np.ones((16, 8), np.float32))
        assert out.shape == ()

        # Second identical program: served from the store.
        traced2 = trace(lambda x, w: tops.reduce_sum(x @ w),
                        ShapeDtype((32, 16)), ShapeDtype((16, 8)))
        tactic2 = AutomaticPartition(
            ["B", "M"], options=dict(budget=6, seed=0, device=TINY_DEVICE))
        partir_jit(traced2, MESH, [tactic2], device=TINY_DEVICE,
                   plan_server=addr(server))
        assert tactic2.last_search.plan_source == "server:exact"
        assert server.searches_run == 1


class TestPlanStore:
    """One index: ``(canonical digest, params key)``; the hit's label is
    read off the layout the record keeps."""

    LAYOUT = "0" * 32

    def _record(self, digest, cost=1.0, layout=LAYOUT):
        return PlanRecord(key=(digest, ("B",)), actions=((0, 0, 0, "B"),),
                          cost=cost, layout=layout)

    def test_lru_eviction_drops_oldest(self):
        store = PlanStore(max_entries=2)
        for digest in "abc":
            store.put(self._record(digest))
        assert len(store) == 2
        assert store.evictions == 1
        assert store.lookup("a", ("B",), self.LAYOUT) is None
        record, tier = store.lookup("b", ("B",), self.LAYOUT)
        assert tier == "exact" and record.key[0] == "b"
        assert store.stats()["misses"] == 1

    def test_lookup_refreshes_recency(self):
        store = PlanStore(max_entries=2)
        store.put(self._record("a"))
        store.put(self._record("b"))
        store.lookup("a", ("B",), self.LAYOUT)  # refresh "a"
        store.put(self._record("c"))
        assert store.lookup("a", ("B",), self.LAYOUT) is not None
        assert store.lookup("b", ("B",), self.LAYOUT) is None

    def test_exact_label_follows_the_layout(self):
        """A hit is exact iff the requester's layout is the populating
        program's; a relaxed hit registers nothing, so it stays relaxed."""
        store = PlanStore(max_entries=4)
        store.put(self._record("a"))
        other = "1" * 32
        for _ in range(2):
            assert store.lookup("a", ("B",), other)[1] == "relaxed"
        assert store.lookup("a", ("B",), self.LAYOUT)[1] == "exact"
        assert store.lookup("a", ("M",), self.LAYOUT) is None
        stats = store.stats()
        assert (stats["hits_exact"], stats["hits_relaxed"],
                stats["misses"]) == (1, 2, 1)

    def test_server_caps_its_store_at_max_entries(self):
        with PlanServer(max_entries=3) as capped:
            assert capped.stats()["store"]["max_entries"] == 3


class TestRestart:
    """The transposition log is the daemon's one persistent store: a
    daemon started on its predecessor's ``cache_dir`` answers the same
    request by replaying the predecessor's search from the log."""

    def test_restarted_daemon_replays_the_search_from_its_log(self,
                                                              tmp_path):
        cache_dir = str(tmp_path)
        with PlanServer(cache_dir=cache_dir) as first:
            served = _search(first)
        assert served.plan_source == "server:search"
        replays = []

        def spy(*args, **kwargs):
            replays.append(mcts_search(*args, **kwargs))
            return replays[-1]

        with PlanServer(cache_dir=cache_dir, search_fn=spy) as second:
            again = _search(second)
        assert again.plan_source == "server:search"
        (replay,) = replays
        assert (replay.evaluations, replay.prune_probes) == (0, 0)
        assert (replay.actions, replay.cost) == (served.actions, served.cost)
        assert (again.actions, again.cost) == (served.actions, served.cost)

    @staticmethod
    def _serve_once(cache_dir):
        """``python -m repro.auto.server`` on ``cache_dir``: answer one
        request, then stop the daemon the way Ctrl-C does."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.auto.server", "--port", "0",
             "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            line = process.stdout.readline()
            assert "listening on " in line, line
            result = _search(line.split("listening on ", 1)[1].strip())
        finally:
            process.send_signal(signal.SIGINT)
            try:
                returncode = process.wait(timeout=30)
            finally:
                process.kill()
                process.stdout.close()
        assert returncode == 0
        return result

    @staticmethod
    def _log_bytes(cache_dir):
        logs = {}
        for name in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, name), "rb") as handle:
                logs[name] = handle.read()
        return logs

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_cli_daemon_stops_on_signal_despite_ignored_sigint(self, signum):
        """A daemon started as a background job (SIGINT inherited
        ignored) still stops cleanly on SIGINT and on SIGTERM."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.auto.server", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                      signal.SIG_IGN))
        try:
            assert "listening on " in process.stdout.readline()
            process.send_signal(signum)
            assert process.wait(timeout=10) == 0
        finally:
            process.kill()
            process.stdout.close()

    def test_cli_daemon_restarted_on_its_cache_dir_serves_the_same_plan(
            self, tmp_path):
        cache_dir = str(tmp_path)
        first = self._serve_once(cache_dir)
        logs = self._log_bytes(cache_dir)
        assert [name.startswith("tt_") for name in logs] == [True]
        second = self._serve_once(cache_dir)
        assert first.plan_source == second.plan_source == "server:search"
        assert (second.actions, second.cost) == (first.actions, first.cost)
        assert self._log_bytes(cache_dir) == logs

    def test_cli_has_no_snapshot_flag(self, capsys):
        from repro.auto import server as server_mod

        with pytest.raises(SystemExit):
            server_mod.main(["--help"])
        usage = capsys.readouterr().out
        assert "--cache-dir" in usage and "--max-entries" in usage
        assert "--store" not in usage


class TestRpcProtocol:
    def test_parse_address(self):
        assert rpc.parse_address("localhost:7077") == ("localhost", 7077)
        assert rpc.parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError):
            rpc.parse_address("no-port")

    def test_unknown_kind_is_a_remote_error(self, server):
        with rpc.connect(addr(server)) as connection:
            for kind in ("nonsense", "table"):  # "table" had no caller
                with pytest.raises(rpc.RemoteError, match="unknown request"):
                    connection.request({"kind": kind})
            # The connection survives a handler error.
            assert connection.request({"kind": "ping"}) == "pong"

    def test_protocol_mismatch_rejected(self, server):
        with rpc.connect(addr(server)) as connection:
            for theirs in (2, 999):
                with pytest.raises(rpc.RemoteError, match="protocol"):
                    connection.request({"kind": "ping", "protocol": theirs})

    @staticmethod
    def _retired_option(server, option, refused, served):
        """A client still naming a retired search option is served — and
        shares the plan a current client gets — when it names the one
        value left, and is refused (a ``RemoteError``, so it searches
        locally) when it names ``refused``.  No ``PROTOCOL`` bump: the
        reply carries exactly what clients read."""
        identity = SearchConfig(budget=8, seed=0).plan_identity()

        def request(value):
            return connection.request({
                "kind": "plan", "function": chain(), "mesh": MESH,
                "env": (), "device": TINY_DEVICE, "axes": ["B", "M"],
                "search": dict(identity, **{option: value}),
            })

        with rpc.connect(addr(server)) as connection:
            if refused is not None:
                with pytest.raises(rpc.RemoteError, match="is served"):
                    request(refused)
            reply = request(served)
        assert set(reply) == {"tier", "actions", "cost"}
        assert reply["tier"] == "search"
        current = _search(server)
        assert current.plan_source == "server:exact"
        assert current.actions == [tuple(a) for a in reply["actions"]]
        assert current.cost == reply["cost"]
        assert server.searches_run == 1

    def test_request_carrying_the_retired_prior_option_is_served(self,
                                                                  server):
        """The server reads only its own plan-identity names out of
        ``"search"``: any prior is served, and no reply says
        ``"priors"``."""
        self._retired_option(server, "prior", None, "group")

    def test_retired_action_space_in_a_request(self, server):
        """The deleted input-only space is refused."""
        self._retired_option(server, "action_space", "inputs", "tagged")

    def test_retired_exploration_in_a_request(self, server):
        """The UCT constant left the plan identity: only 0.5 is served."""
        self._retired_option(server, "exploration", 1.0, 0.5)

    def test_stop_never_joins_an_unstarted_connection_thread(
            self, monkeypatch):
        """``stop()`` racing an accept: the connection thread is held just
        before it starts while ``stop()`` runs.  Joining it there would
        raise ``RuntimeError: cannot join thread before it is started``."""
        entered, release = threading.Event(), threading.Event()
        start = threading.Thread.start

        def held_start(thread):
            if thread.name == "partir-rpc-conn":
                entered.set()
                release.wait(10.0)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", held_start)
        server = rpc.RpcServer(lambda: (lambda message: message))
        server.start()
        try:
            with socket.create_connection(server.address, timeout=5.0):
                assert entered.wait(5.0)
                server.stop()
        finally:
            release.set()

    def test_older_daemon_ends_in_a_local_serial_search(self, server,
                                                        monkeypatch):
        """A PROTOCOL-2 daemon answers this client's every request with
        its version-mismatch error: a plan request falls back to a local
        search, and the ``remote`` backend — whose sessions fail on their
        ``eval_init`` reply — degrades to in-process evaluation."""
        from repro.auto import server as server_mod

        def old_daemon(self, message):
            if message.get("protocol") != 2:
                raise ValueError("protocol mismatch: server speaks 2")
            raise AssertionError("client sent a protocol-2 frame")

        monkeypatch.setattr(server_mod._ConnectionHandler, "__call__",
                            old_daemon)
        reference = _search()
        with pytest.warns(RuntimeWarning, match="protocol mismatch"):
            served = _search(server)
        assert served.plan_source == "local"
        with pytest.warns(RuntimeWarning, match="protocol mismatch"):
            fanned = _search(server, backend="remote", workers=2)
        assert fanned.degraded_to == "serial"
        for result in (served, fanned):
            assert result.actions == reference.actions
            assert result.cost == reference.cost


class TestMidStreamResets:
    """Connection drops *mid-frame* — after the request went out but
    before a complete reply came back — must land on the same graceful
    local fallback as a refused connection."""

    def _half_frame_server(self):
        """A fake plan server that reads one request, replies with a
        truncated frame (complete header, half the payload) and drops the
        connection."""
        import socket
        import struct

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                header = b""
                while len(header) < 8:
                    header += conn.recv(8 - len(header))
                length = struct.unpack("<II", header)[0]
                remaining = length
                while remaining:
                    remaining -= len(conn.recv(remaining))
                body = b"x" * 64
                conn.sendall(struct.pack("<II", len(body), 0)
                             + body[:len(body) // 2])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread

    def test_reply_truncated_mid_frame_falls_back_locally(self):
        rpc.reset_breakers()
        listener, thread = self._half_frame_server()
        try:
            address = rpc.format_address(listener.getsockname())
            reference = _search()
            with pytest.warns(RuntimeWarning, match="searching locally"):
                result = _search(address)
            assert result.plan_source == "local"
            assert result.actions == reference.actions
            assert result.cost == reference.cost
            thread.join(timeout=5.0)
        finally:
            listener.close()
            rpc.reset_breakers()


def test_stopped_server_refuses_connections():
    """``stop()`` must wake the accept thread: a listener kept alive by a
    blocked ``accept()`` takes (and drops) one more connection on the old
    port, which a client then reports as a server *failure* instead of an
    unreachable one — the breaker tests below reuse a stopped server's
    port and depend on the difference."""
    import socket

    for _ in range(25):
        server = PlanServer()
        server.start()
        host, port = server.address
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0).close()


class TestCircuitBreaker:
    """The client-side circuit breaker around ``plan_server=``."""

    @pytest.fixture(autouse=True)
    def isolated_breakers(self):
        rpc.reset_breakers()
        yield
        rpc.reset_breakers()

    def test_state_machine_cycle(self, monkeypatch):
        monkeypatch.setattr(rpc, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(rpc, "BREAKER_COOLDOWN_S", 0.15)
        breaker = rpc.CircuitBreaker()
        assert breaker.state == rpc.CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == rpc.CircuitBreaker.CLOSED  # 1 < threshold
        breaker.record_failure()
        assert breaker.state == rpc.CircuitBreaker.OPEN
        assert breaker.allow() is False  # cooldown running
        time.sleep(0.2)
        assert breaker.allow() is True  # the half-open probe
        assert breaker.state == rpc.CircuitBreaker.HALF_OPEN
        assert breaker.allow() is False  # one probe at a time
        breaker.record_failure()  # probe lost -> re-open, new cooldown
        assert breaker.state == rpc.CircuitBreaker.OPEN
        assert breaker.allow() is False
        time.sleep(0.2)
        assert breaker.allow() is True
        breaker.record_success()  # probe won -> closed, count reset
        assert breaker.state == rpc.CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == rpc.CircuitBreaker.CLOSED  # counter was reset

    def test_success_and_remote_errors_keep_circuit_closed(self, server):
        # A RemoteError proves the server is alive: never opens the
        # breaker (regression for treating app errors as outages).
        breaker = rpc.breaker_for(addr(server))
        for _ in range(5):
            with rpc.connect(addr(server)) as connection:
                with pytest.raises(rpc.RemoteError):
                    connection.request({"kind": "nonsense"})
            _search(server)
        assert breaker.state == rpc.CircuitBreaker.CLOSED

    def test_opens_after_threshold_and_skips_the_network(self, monkeypatch):
        monkeypatch.setattr(rpc, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(rpc, "BREAKER_COOLDOWN_S", 3600.0)
        rpc.reset_breakers()
        dead = "127.0.0.1:1"
        reference = _search()
        with pytest.warns(RuntimeWarning, match="unreachable"):
            first = _search(dead)
        assert first.server_circuit_open is False  # 1 failure < threshold
        with pytest.warns(RuntimeWarning, match="unreachable"):
            second = _search(dead)
        assert second.server_circuit_open is True  # threshold reached
        # Third call: breaker open -> no connection attempt, distinct
        # warning, still the bit-identical local result.
        with pytest.warns(RuntimeWarning, match="circuit open"):
            third = _search(dead)
        assert third.server_circuit_open is True
        assert third.plan_source == "local"
        assert third.actions == reference.actions
        assert third.cost == reference.cost

    def test_half_open_probe_recovers_when_server_returns(self,
                                                          monkeypatch):
        monkeypatch.setattr(rpc, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(rpc, "BREAKER_COOLDOWN_S", 0.2)
        rpc.reset_breakers()
        # Reserve a port, open the breaker against it while it's dead,
        # then bring a real server up on that same port.
        probe = PlanServer()
        probe.start()
        host, port = probe.address
        probe.stop()
        dead = f"{host}:{port}"
        with pytest.warns(RuntimeWarning, match="unreachable"):
            result = _search(dead)
        assert result.server_circuit_open is True
        with PlanServer(host=host, port=port) as revived:
            time.sleep(0.25)  # past the cooldown: next call is the probe
            recovered = _search(revived)
            assert recovered.plan_source == "server:search"
            assert recovered.server_circuit_open is False
            assert rpc.breaker_for(dead).state == rpc.CircuitBreaker.CLOSED
