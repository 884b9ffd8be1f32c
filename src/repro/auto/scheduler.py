"""Rollout scheduling: in-process waves, or waves fanned across workers.

The tree policy proposes rollouts (canonical action sets); the evaluator
scores them; the scheduler decides *how many are in flight at once* and
*where they are scored*, with every knob read from the search's
:class:`repro.auto.SearchConfig`.  Four backend names, two classes:

* ``serial`` / ``batched`` — :class:`RolloutScheduler` itself: a wave of
  leaves is collected under virtual loss, its distinct action sets are
  scored on the main process's evaluator in **sorted canonical order**
  (keys are sorted tuples, so lexicographic order is prefix order: sets
  sharing a prefix sit next to each other and the undo engine keeps that
  prefix applied), then the losses are reverted and every leaf backed up
  in wave order.  ``serial``
  is a wave of one — the classic single-loop MCTS: virtual loss applied
  and reverted around one selection provably changes no UCT score, so
  ``batched`` with ``wave_size=1`` is bit-identical to it, counters
  included (the regression suite pins this); ``batched`` defaults to a
  wave of eight.  Note the rollout *randomness* is the per-node streams
  of :mod:`repro.auto.tree` for every backend, so no backend's
  interleaving can perturb another rollout's draw.
* ``process`` / ``remote`` — :class:`_FanOutScheduler`: waves are formed
  the same way, but the wave's transposition-table misses are fanned
  across evaluator-owning **workers**.  A worker is an
  :class:`~repro.auto.evaluator.EvaluatorSession` on the far end of a
  :class:`repro.auto.rpc.Connection`: primed once with ``eval_init``
  (``function, mesh, portable env state, device`` — see
  ``ShardingEnv.portable_state``), then streamed slices of canonical
  action keys (``eval``) and answering one ``(key, cost, counter
  deltas)`` tuple per key.  Worker ``w`` gets the ``w``-th contiguous
  slice of the sorted misses (``ceil(misses / workers)`` keys each), so
  placement is a pure function of the wave's content — never of timing
  or of what was routed before.  The two backends differ only in how a
  worker's connection is opened: ``process`` forks a child that serves the
  session on one end of a ``socket.socketpair()`` (handing it the
  ``eval_init`` at fork, so the function and the caches derived on it
  are inherited rather than pickled); ``remote`` connects to a plan
  server (:mod:`repro.auto.server`), whose connection handler serves the
  same session class, and sends ``eval_init`` as its first frame — one
  search fanning rollout waves across machines.

One self-healing ladder covers both transports.  Every worker call
carries the ``rpc_timeout_s`` socket deadline; a dead worker is an EOF on
receive, a silent one the deadline, a worker-side error an ``ok: False``
reply.  Any failed slice retires that worker's session, re-opens it
within ``restart_budget`` (re-fork, or reconnect with seeded backoff),
replays the saved ``eval_init`` and re-routes the slice's keys; past the
budget the scheduler degrades to in-process evaluation.  A rollout is
never lost, because every evaluation is a pure function of the canonical
key and re-executes bit-identically anywhere.  Workers that cannot be
opened at all raise :class:`SchedulerUnavailable` at start, which
``mcts_search`` catches to fall back to the serial backend.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
import warnings
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Set)

from repro.auto import faults, rpc
from repro.auto.evaluator import Evaluator, EvaluatorSession
from repro.auto.tree import ActionKey, TreePolicy, _stable_hash

if TYPE_CHECKING:
    from repro.auto.search import SearchConfig

#: Default worker count for the process and remote backends.
DEFAULT_WORKERS = 2

BACKENDS = ("serial", "batched", "process", "remote")

#: Default wave of the ``batched`` backend.
DEFAULT_WAVE = 8
#: Worker sessions re-opened (re-fork / reconnect) per search before the
#: backend degrades to in-process evaluation.
DEFAULT_RESTART_BUDGET = 1
#: Per-call socket deadline on a worker connection, both transports.
DEFAULT_RPC_TIMEOUT_S = 60.0
#: Connect attempts per opened remote session (exponential backoff).
RECONNECT_ATTEMPTS = 3


class SchedulerUnavailable(RuntimeError):
    """A backend's workers could not be opened (e.g. the ``remote``
    backend's plan server is down); callers may fall back to a local
    backend."""


class RolloutScheduler:
    """Drives ``budget`` rollouts of ``policy`` through ``evaluator``, a
    wave at a time, scoring each wave in-process (the ``serial`` and
    ``batched`` backends; subclasses fan the wave out instead).

    ``on_result(key, cost)`` fires once per rollout in wave order (the
    deterministic record the caller tracks the incumbent best with);
    rewards are backed up through the leaf that proposed the rollout.
    Knobs come from ``config`` (a ``None`` field is its ``DEFAULT_*``);
    the ``serial`` backend is a wave of one whatever ``wave_size`` says.
    """

    name = "batched"

    def __init__(self, config: "SearchConfig", name: Optional[str] = None):
        if name is not None:
            self.name = name
        self.config = config
        self.rpc_timeout_s = (config.rpc_timeout_s
                              if config.rpc_timeout_s is not None
                              else DEFAULT_RPC_TIMEOUT_S)
        self.restart_budget = (config.restart_budget
                               if config.restart_budget is not None
                               else DEFAULT_RESTART_BUDGET)
        self.workers = config.workers or DEFAULT_WORKERS
        self._started = False
        #: Evaluation waves formed (``SearchResult.waves``).
        self.waves = 0
        #: Self-healing record, surfaced via ``SearchResult``: worker
        #: sessions re-opened (re-forked / re-connected), wave slices
        #: re-routed after a failure, and — past the restart budget —
        #: which in-process backend the search degraded to ("" = never).
        self.workers_restarted = 0
        self.waves_retried = 0
        self.degraded_to = ""
        self._restarts_left = self.restart_budget

    # -- the wave loop ------------------------------------------------------

    def prepare(self, evaluator: Evaluator) -> None:
        """Start backend resources early (optional).

        The fan-out backends open their workers here, each with its
        ``eval_init``, without waiting for a reply, so the workers prime
        their caches — a full root evaluation each — concurrently with
        the main process's own baseline evaluation.
        """
        if not self._started:
            self._start(evaluator)
            self._started = True

    def shutdown(self) -> None:
        """Release backend resources (idempotent; ``run`` calls it too)."""
        if self._started:
            self._stop()
            self._started = False

    def run(self, policy: TreePolicy, evaluator: Evaluator, budget: int,
            baseline: float,
            on_result: Callable[[ActionKey, float], None]) -> None:
        wave_size = self._effective_wave_size(budget)
        self.prepare(evaluator)
        try:
            done = 0
            while done < budget:
                count = min(wave_size, budget - done)
                wave = []
                for _ in range(count):
                    node, key = policy.next_rollout()
                    node.apply_virtual_loss()
                    wave.append((node, key))
                self.waves += 1
                costs = self._evaluate_wave(
                    evaluator, [key for _, key in wave])
                for node, key in wave:
                    node.revert_virtual_loss()
                    cost = costs[key]
                    on_result(key, cost)
                    # Reward = relative improvement over the empty set.
                    reward = (baseline - cost) / max(baseline, 1e-12)
                    node.backup(reward)
                done += count
        finally:
            self.shutdown()

    def _effective_wave_size(self, budget: int) -> int:
        if self.name == "serial":
            return 1
        return self.config.wave_size or min(DEFAULT_WAVE, max(budget, 1))

    def _start(self, evaluator: Evaluator) -> None:
        pass

    def _stop(self) -> None:
        pass

    def _evaluate_wave(self, evaluator: Evaluator,
                       keys: Sequence[ActionKey]) -> Dict[ActionKey, float]:
        """Score a wave's distinct keys in sorted order (lexicographic
        order on sorted tuples is prefix order, so what prefix locality
        the wave has comes for free).  Only the *evaluation* order is
        decided here — ``run`` backs results up in wave order."""
        return {key: evaluator.evaluate(key) for key in sorted(set(keys))}


# -- fan-out backends --------------------------------------------------------------


def _fold_delta(evaluator: Evaluator, result) -> None:
    """Fold one worker reply's counter deltas (the 10-tuple of
    :func:`repro.auto.evaluator.evaluate_with_deltas`) into the main
    evaluator and memoize its cost."""
    (key, cost, prop_dt, est_dt, ops, prop_calls, ops_reused,
     chain_hits, prefix_total, prefix_reused) = result
    evaluator.evaluations += 1
    evaluator.propagate_time_s += prop_dt
    evaluator.estimate_time_s += est_dt
    evaluator.root.stats.ops_processed += ops
    evaluator.root.stats.propagate_calls += prop_calls
    evaluator._estimator.ops_reused += ops_reused
    evaluator._estimator.reconcile_hits += chain_hits
    evaluator.prefix_actions_total += prefix_total
    evaluator.prefix_actions_reused += prefix_reused
    evaluator.table.store(tuple(map(tuple, key)), cost)


class _FanOutScheduler(RolloutScheduler):
    """Waves fanned across evaluator-owning workers: table-hit filtering,
    contiguous slices of the sorted misses, and the one self-healing
    ladder (module docstring).  A subclass says how a worker's connection
    is opened (:meth:`_open`)."""

    def _effective_wave_size(self, budget: int) -> int:
        return self.config.wave_size or min(max(budget, 1), 2 * self.workers)

    # -- worker sessions ----------------------------------------------------

    def _open(self, worker: int) -> rpc.Connection:
        """A connection to a fresh worker that has been given the saved
        ``eval_init`` (``self._init``), so the first reply it sends is
        that message's; ``OSError`` when no worker can be had.  Closing
        the connection releases the worker."""
        raise NotImplementedError

    def _open_session(self, worker: int) -> None:
        """(Re-)open ``worker``'s session without reading its
        ``eval_init`` reply: the worker primes while this process carries
        on, and the wave that first uses the session collects the reply
        (:meth:`_collect`)."""
        self._connections[worker] = self._open(worker)
        self._priming.add(worker)

    def _start(self, evaluator: Evaluator) -> None:
        workers = self.workers
        # The evaluator's single env must be at the root (empty prefix)
        # state before its shardings are snapshotted for the workers'
        # baselines.
        evaluator._env_for(())
        root = evaluator.root
        #: Replayed verbatim to every re-opened session.
        self._init = {
            "kind": "eval_init",
            "function": evaluator.function,
            "mesh": root.mesh,
            "env": root.portable_state(evaluator.function),
            "device": evaluator.device,
        }
        self._connections: List[Optional[rpc.Connection]] = [None] * workers
        #: Workers whose ``eval_init`` reply has not been read yet.
        self._priming: Set[int] = set()
        try:
            for worker in range(workers):
                self._open_session(worker)
        except OSError as exc:
            self._stop()  # do not leak the workers already opened
            raise SchedulerUnavailable(
                f"{self.name} worker could not be opened: {exc}"
            ) from exc

    def _stop(self) -> None:
        for connection in self._connections:
            if connection is not None:
                connection.close()
        self._connections = []

    def _collect(self, worker: int) -> list:
        """``worker``'s reply to the slice just sent (behind its
        ``eval_init`` reply, when that is still unread)."""
        connection = self._connections[worker]
        if worker in self._priming:
            connection.recv()
            self._priming.discard(worker)
        return connection.recv()

    def _heal(self, broken: Dict[int, Exception]) -> None:
        """Retire each broken worker's session and re-open it within the
        restart budget; past it (or when a worker cannot be re-opened),
        degrade to in-process evaluation for the rest of the search —
        which changes which CPU does the work, never the costs or the
        search trajectory (``run`` backs up in wave order regardless of
        who evaluated)."""
        for worker, failure in broken.items():
            self._connections[worker].close()
            self._priming.discard(worker)
            try:
                if self._restarts_left <= 0:
                    raise OSError(f"no restart budget left "
                                  f"({self.restart_budget} used)")
                self._restarts_left -= 1
                self._open_session(worker)
            except OSError as exc:
                self.degraded_to = "serial"
                warnings.warn(
                    f"{self.name} rollout backend degraded to in-process "
                    f"serial evaluation: worker {worker} failed ({failure}) "
                    f"and could not be re-opened: {exc} (results are "
                    f"unaffected; raise the restart_budget search option "
                    f"to keep healing instead)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return
            self.workers_restarted += 1

    # -- the wave -----------------------------------------------------------

    def _evaluate_wave(self, evaluator, keys):
        # Table hits are served here; only the misses cross to workers.
        costs: Dict[ActionKey, float] = {}
        pending: List[ActionKey] = []
        for key in sorted(set(keys)):
            cached = evaluator.table.lookup(key)
            if cached is not None:
                costs[key] = cached
            else:
                pending.append(key)
        while pending:
            if self.degraded_to:
                for key in pending:
                    costs[key] = evaluator.evaluate(key)
                break
            routed = self._route_wave(pending).items()
            # Every slice goes out before any reply is read, so the
            # workers score their slices concurrently.
            for worker, worker_keys in routed:
                connection = self._connections[worker]
                try:
                    connection.send({"kind": "eval",
                                     "keys": [list(k) for k in worker_keys]})
                except OSError:
                    connection.close()  # its collect below fails at once
            # Collect in worker order: the fold order of counter
            # deltas — and therefore every downstream counter — stays
            # deterministic whether or not anything failed.
            failed: List[ActionKey] = []
            broken: Dict[int, Exception] = {}
            for worker, worker_keys in routed:
                try:
                    results = self._collect(worker)
                except (rpc.RemoteError, OSError) as exc:
                    # RemoteError included: a worker-side failure (an
                    # evaluation raised) leaves that session's state
                    # unknown, so retire-and-re-init is the recovery
                    # either way — and an evaluation that raises
                    # everywhere surfaces from the in-process terminus
                    # with its own type.
                    failed.extend(worker_keys)
                    broken[worker] = exc
                    continue
                for result in results:
                    costs[tuple(map(tuple, result[0]))] = result[1]
                    _fold_delta(evaluator, result)
            if not failed:
                break
            self.waves_retried += 1
            self._heal(broken)
            pending = failed
        return costs

    def _route_wave(self, misses: Sequence[ActionKey]) -> Dict[
            int, List[ActionKey]]:
        """Worker ``w`` scores the ``w``-th contiguous slice of the sorted
        table ``misses``, ``ceil(misses / workers)`` keys each.  Sorted
        order is prefix order, so whatever prefix locality the wave has
        stays inside a slice, and placement is a pure function of the
        wave's content."""
        cap = -(-len(misses) // len(self._connections))
        return {worker: misses[start:start + cap]
                for worker, start in enumerate(range(0, len(misses), cap))}


def _serve_worker(sock: socket.socket, parent_end: socket.socket,
                  init: dict) -> None:
    """Body of a ``process`` worker: serve one evaluator session on
    ``sock`` until the parent hangs up, answering ``init`` — the
    ``eval_init`` handed over at fork — first."""
    # The copy of the parent's end this child was forked with would keep
    # its own receive from ever seeing EOF.
    parent_end.close()
    # Re-arm the fault plan from PARTIR_FAULT_PLAN with *fresh* per-site
    # counters: a forked worker otherwise inherits the parent plan object
    # mid-count, making worker fault schedules depend on how much the
    # parent fired before the fork.  No plan installed -> clears to the
    # zero-overhead fast path.
    faults.reload_from_env()
    session = EvaluatorSession()

    def handle(message):
        if message.get("kind") == "eval":
            for _ in message["keys"]:
                if faults.should_fire("worker.exit"):
                    # Simulate an OOM-kill/segfault: die without cleanup,
                    # reply never sent.  The parent's receive sees EOF
                    # and re-routes the slice.
                    os._exit(17)
        return session(message)

    rpc.serve_connection(sock, handle, backlog=(init,))


class _ChildConnection(rpc.Connection):
    """A connection whose far end is a child process of this one; closing
    it also reaps the child."""

    def __init__(self, sock: socket.socket, process):
        super().__init__(sock)
        self._process = process

    def close(self) -> None:
        super().close()
        self._process.terminate()
        self._process.join()


class ProcessScheduler(_FanOutScheduler):
    """Workers are forked children, each serving its session on one end
    of a ``socket.socketpair()``.  The ``eval_init`` message is the one
    thing that does not cross the pair: the child is handed it at fork,
    so under the ``fork`` start method the function — and the caches
    derived on it — are inherited instead of pickled (``spawn`` pickles
    it into the child like any other argument)."""

    name = "process"

    def _open(self, worker: int) -> rpc.Connection:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        ours, theirs = socket.socketpair()
        try:
            process = context.Process(target=_serve_worker,
                                      args=(theirs, ours, self._init),
                                      daemon=True,
                                      name=f"partir-worker-{worker}")
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            # Before anything else is forked: a sibling holding this end
            # would mask the child's death (no EOF on ``ours``).
            theirs.close()
        ours.settimeout(self.rpc_timeout_s)
        return _ChildConnection(ours, process)


class RemoteScheduler(_FanOutScheduler):
    """Workers are evaluator sessions on a plan server, one TCP
    connection each.  Opening one retries with bounded exponential
    backoff whose jitter is a deterministic hash of the search seed —
    every run of a seed backs off identically."""

    name = "remote"

    def __init__(self, config: "SearchConfig"):
        super().__init__(config)
        if config.plan_server is None:
            raise ValueError(
                "backend='remote' requires plan_server='host:port'"
            )

    def _open(self, worker: int) -> rpc.Connection:
        for attempt in range(RECONNECT_ATTEMPTS):
            if attempt:
                jitter = _stable_hash(
                    (self.config.seed, worker, attempt,
                     self.workers_restarted)
                ) % 1000 / 2000.0  # +0..50%
                time.sleep(min(0.05 * 2 ** attempt, 1.0) * (1.0 + jitter))
            try:
                connection = rpc.connect(self.config.plan_server,
                                         timeout=self.rpc_timeout_s)
            except OSError as exc:
                error = exc
                continue
            try:
                connection.send(self._init)
                return connection
            except OSError as exc:
                connection.close()
                error = exc
        raise ConnectionError(
            f"plan server {self.config.plan_server!r} unreachable after "
            f"{RECONNECT_ATTEMPTS} attempts: {error}"
        ) from error


def make_scheduler(backend: str, config: "SearchConfig") -> RolloutScheduler:
    """The ``backend`` scheduler, tuned by ``config`` (whose own
    ``backend`` is not read: a search falls back to ``"serial"``)."""
    if backend in ("serial", "batched"):
        return RolloutScheduler(config, backend)
    if backend == "process":
        return ProcessScheduler(config)
    if backend == "remote":
        return RemoteScheduler(config)
    raise ValueError(
        f"unknown search backend {backend!r}; expected one of {BACKENDS}"
    )
