"""Partitioning-as-a-service: the multi-tenant plan server daemon.

One long-lived :class:`PlanServer` serves partition plans and evaluator
sessions to many concurrent clients over the framed socket protocol of
:mod:`repro.auto.rpc`:

* **plan requests** — the client ships its traced function, mesh,
  portable initial-sharding state, device and the semantic search
  parameters; the server canonicalizes the function once
  (:mod:`repro.auto.fingerprint`), answers from its
  :class:`~repro.auto.planstore.PlanStore` under that one digest — so
  byte-identical, alpha-renamed and input-permuted isomorphic programs
  hit one shared entry — and only *searches* on a genuine miss.  Plans
  are cached in canonical index space and translated into each
  requester's local parameter/tag numbering on the way out; the reply is
  ``{"tier", "actions", "cost"}``, where ``tier`` is ``exact`` / ``relaxed``
  (a store hit, labelled by layout) or ``search`` / ``dedup``.
* **in-flight deduplication** — a second request for a key whose search
  is still running blocks on the first request's completion instead of
  re-searching: N concurrent identical requests cost exactly one search
  (``stats()["searches_run"]`` is the regression-tested counter).
* **evaluator sessions** — the ``remote`` rollout backend
  (:class:`repro.auto.scheduler.RemoteScheduler`) opens one connection
  per remote worker, primes a server-side
  :class:`~repro.auto.evaluator.EvaluatorSession` once (``eval_init``),
  then streams canonical action sets to score — fanning one search's
  rollout waves across machines through the very session class and
  frames a forked ``process`` worker serves on its socketpair.

Run the daemon with::

    python -m repro.auto.server --port 7077 --cache-dir plans/

and point clients at it with ``partir_jit(..., plan_server="host:port")``.
The plan store is in memory only; the transposition logs under
``--cache-dir`` are the daemon's one persistent state.  A daemon restarted
on the same directory answers a request its predecessor searched by
replaying that search from the log, at zero evaluations and zero
condenser probes, with the same plan and cost (and the log's bytes
unchanged).
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import Dict, Optional, Tuple

from repro.core.sharding import ShardingEnv

from repro.auto import faults, rpc
from repro.auto.evaluator import EvaluatorSession
from repro.auto.fingerprint import CanonicalForm, canonicalize
from repro.auto.planstore import DEFAULT_MAX_ENTRIES, PlanRecord, PlanStore
from repro.auto.search import (
    PLAN_REQUEST_TIMEOUT_S,
    SearchConfig,
    mcts_search,
)
from repro.auto.tree import EXPLORATION


def params_key(axes, config: SearchConfig) -> Tuple:
    """A plan's identity: requests agreeing on the axes and on the config's
    plan-identity fields (and on the canonical digest) are "the same
    search" and may share a cache entry / an in-flight future.  The
    execution-only fields are bit-identical by the regression-pinned
    purity properties and deliberately excluded."""
    return (tuple(axes),) + tuple(config.plan_identity().values())


class _Inflight:
    """The future a deduplicated plan search resolves."""

    __slots__ = ("event", "record", "error")

    def __init__(self):
        self.event = threading.Event()
        self.record: Optional[PlanRecord] = None
        self.error: Optional[str] = None


class _ConnectionHandler:
    """Per-connection dispatch; owns the connection's evaluator session."""

    def __init__(self, server: "PlanServer"):
        self._server = server
        self._session = EvaluatorSession()

    def __call__(self, message):
        if not isinstance(message, dict):
            raise TypeError("malformed request")
        if message.get("protocol") != rpc.PROTOCOL:
            raise ValueError(
                f"protocol mismatch: server speaks {rpc.PROTOCOL}"
            )
        kind = message.get("kind")
        if kind == "ping":
            return "pong"
        if kind == "stats":
            return self._server.stats()
        if kind == "plan":
            return self._server.handle_plan(message)
        if kind == "eval_init":
            self._server.note_eval_session()
        # eval_init / eval / eval_close: the `remote` backend's far side.
        return self._session(message)

    def close(self) -> None:
        self._session.close()


class PlanServer:
    """The daemon: a :class:`PlanStore` behind an :class:`rpc.RpcServer`.

    ``max_entries`` caps the in-memory store (LRU).  ``cache_dir``
    (optional) gives server-side searches a persistent transposition
    spool: repeated misses on one program (another seed, a larger budget,
    a restarted daemon) pay only for sets never scored before.
    ``search_fn`` is an injection point for tests (defaults to
    :func:`mcts_search`).  A request waiting on another's identical
    search gives up after :data:`~repro.auto.search.PLAN_REQUEST_TIMEOUT_S`,
    the client's own bound on a plan request.

    Hardening (passed through to the underlying
    :class:`~repro.auto.rpc.RpcServer`): ``max_connections`` bounds
    concurrent clients, ``idle_timeout_s`` reaps connections with no
    request for that long (evaluator sessions included — the remote
    backend reconnects and re-primes transparently).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_entries: int = DEFAULT_MAX_ENTRIES,
                 cache_dir: Optional[str] = None,
                 search_fn=None,
                 max_connections: int = 64,
                 idle_timeout_s: Optional[float] = 300.0):
        self.store = PlanStore(max_entries)
        self._search_fn = search_fn if search_fn is not None else mcts_search
        self._base_config = SearchConfig.of(cache_dir=cache_dir)
        self._inflight: Dict[Tuple, _Inflight] = {}
        self._lock = threading.Lock()
        self.searches_run = 0
        self.dedup_joined = 0
        self.plan_requests = 0
        self.eval_sessions = 0
        self._rpc = rpc.RpcServer(lambda: _ConnectionHandler(self),
                                  host=host, port=port,
                                  max_connections=max_connections,
                                  idle_timeout_s=idle_timeout_s)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self._rpc.address

    def start(self) -> "PlanServer":
        self._rpc.start()
        return self

    def serve_forever(self) -> None:
        self._rpc.serve_forever()

    def stop(self) -> None:
        self._rpc.stop()

    def __enter__(self) -> "PlanServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def note_eval_session(self) -> None:
        with self._lock:
            self.eval_sessions += 1

    def stats(self) -> dict:
        with self._lock:
            out = {
                "searches_run": self.searches_run,
                "dedup_joined": self.dedup_joined,
                "plan_requests": self.plan_requests,
                "eval_sessions": self.eval_sessions,
                "inflight": len(self._inflight),
            }
        out["store"] = self.store.stats()
        out["connections_rejected"] = self._rpc.connections_rejected
        out["connections_reaped"] = self._rpc.connections_reaped
        return out

    # -- plan serving -------------------------------------------------------

    def handle_plan(self, message) -> dict:
        function = message["function"]
        mesh = message["mesh"]
        device = message["device"]
        env = ShardingEnv(mesh)
        env.apply_portable_state(function, message["env"])
        canon = canonicalize(function, mesh, device, env)
        # A repeated axis names no new action (as in mcts_search), so it
        # must not name a new plan either.
        axes = list(dict.fromkeys(message["axes"]))
        # Only the plan identity is the client's to choose; how the search
        # executes here is the server's business.  Older clients also name
        # an action space and a UCT constant; only the ones left can be
        # answered.
        search = message.get("search", {})
        if search.get("action_space", "tagged") != "tagged":
            raise ValueError("only the tagged action space is served")
        if search.get("exploration", EXPLORATION) != EXPLORATION:
            raise ValueError(f"only exploration {EXPLORATION} is served")
        config = SearchConfig.of(self._base_config, **{
            name: search[name]
            for name in self._base_config.plan_identity()
            if search.get(name) is not None})
        pkey = params_key(axes, config)
        with self._lock:
            self.plan_requests += 1
        found = self.store.lookup(canon.digest, pkey, canon.layout)
        if found is not None:
            record, tier = found
            return self._reply(record, tier, canon)
        key = (canon.digest, pkey)
        with self._lock:
            flight = self._inflight.get(key)
            runner = flight is None
            if runner:
                flight = _Inflight()
                self._inflight[key] = flight
                self.searches_run += 1
            else:
                self.dedup_joined += 1
        if not runner:
            if not flight.event.wait(timeout=PLAN_REQUEST_TIMEOUT_S):
                raise TimeoutError(
                    "deduplicated search did not finish in time"
                )
            if flight.record is None:
                raise RuntimeError(
                    f"deduplicated search failed: {flight.error}"
                )
            return self._reply(flight.record, "dedup", canon)
        try:
            record = self._run_search(function, env, axes, device,
                                      config, canon, key)
            flight.record = record
        except BaseException as exc:
            flight.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
        return self._reply(record, "search", canon)

    def _run_search(self, function, env, axes, device,
                    config: SearchConfig,
                    canon: CanonicalForm, key: Tuple) -> PlanRecord:
        if faults.should_fire("server.search"):
            # Simulates the daemon's search crashing/timing out: the
            # client sees a RemoteError reply and falls back to a local
            # search (the degradation ladder's serving rung).
            raise RuntimeError("injected fault: server.search")
        result = self._search_fn(function, env, axes, device=device,
                                 config=config)
        record = PlanRecord(
            key=key,
            actions=canon.encode_key(tuple(tuple(a) for a in
                                           result.actions)),
            cost=result.cost,
            layout=canon.layout,
        )
        self.store.put(record)
        return record

    def _reply(self, record: PlanRecord, tier: str,
               canon: CanonicalForm) -> dict:
        return {
            "tier": tier,
            "actions": [list(a) for a in canon.decode_key(record.actions)],
            "cost": record.cost,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PartIR plan server: partitioning-as-a-service daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port (printed)")
    parser.add_argument("--max-entries", type=int,
                        default=DEFAULT_MAX_ENTRIES,
                        help="LRU plan-store cap "
                             f"(default {DEFAULT_MAX_ENTRIES})")
    parser.add_argument("--cache-dir", default=None,
                        help="transposition spool directory for "
                             "server-side searches; a daemon restarted "
                             "on it replays its predecessor's searches")
    parser.add_argument("--max-connections", type=int, default=64,
                        help="concurrent client connections accepted "
                             "(default 64; excess are closed at accept)")
    parser.add_argument("--idle-timeout", type=float, default=300.0,
                        help="seconds of request silence before a "
                             "connection is reaped (0 disables)")
    args = parser.parse_args(argv)

    server = PlanServer(host=args.host, port=args.port,
                        max_entries=args.max_entries,
                        cache_dir=args.cache_dir,
                        max_connections=args.max_connections,
                        idle_timeout_s=args.idle_timeout or None)
    host, port = server.address
    # SIGINT and SIGTERM both leave the accept loop the way Ctrl-C does,
    # also in a background job (``cmd &``), which inherits SIGINT ignored.
    # Installed before the address is printed: a client may signal as
    # soon as it reads it.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    try:
        print(f"partir-plan-server listening on {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
