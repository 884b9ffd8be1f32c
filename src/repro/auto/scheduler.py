"""Rollout scheduling: serial, batched, and multiprocess search backends.

The tree policy proposes rollouts (canonical action sets); the evaluator
scores them; the scheduler decides *how many are in flight at once* and
*where they are scored*:

* ``serial`` — one rollout at a time, evaluate, back up: the classic
  single-loop MCTS.  Virtual loss is applied and reverted around a wave of
  size one, which provably changes no UCT score, so ``batched`` with
  ``wave_size=1`` is bit-identical to ``serial``, counters included (the
  regression suite pins this).  Note the rollout *randomness* is the
  per-node streams of :mod:`repro.auto.tree` for every backend — a
  deliberate change from the pre-package module's single shared
  ``random.Random``, so that no backend's interleaving can perturb
  another rollout's draw.
* ``batched`` — collects a wave of leaves under virtual loss, then scores
  the wave's distinct action sets in **Euler-tour order** (the leaves'
  ``tour_path`` positions, ties by key) through the shared evaluator:
  consecutive evaluations come from neighboring subtrees, so the undo
  engine's rollback/extend distance tracks the true edit distance between
  rollouts, before reverting the losses and backing up every leaf.
* ``remote`` — same wave formation and LCP-affinity routing as
  ``process``, but the workers are **evaluator sessions on a plan
  server** (:mod:`repro.auto.server`): one socket connection per worker,
  primed once with the same ``(function, mesh, portable env state,
  device)`` payload, then streamed canonical action keys — one
  search fanning rollout waves across machines.  An unreachable server
  raises :class:`SchedulerUnavailable` at start, which ``mcts_search``
  catches to fall back to the serial backend.
* ``process`` — forms waves the same way, but fans the wave's
  transposition-table misses across ``multiprocessing`` workers.  PR 1's
  prefix-env cache made evaluations independent given their prefix: a
  worker owns a full :class:`~repro.auto.evaluator.Evaluator` (its own
  prefix envs, plan memos and local table), so the only bytes crossing the
  process boundary are canonical action keys out and ``(key, cost,
  counters)`` back.  Tour-ordered keys are routed by longest-common-prefix
  affinity: each goes to the worker whose last routed key shares the
  longest canonical prefix (ties to a stable hash of the leading action,
  with a per-wave cap keeping the fan-out balanced), so every worker's
  slice of the wave is a run of tree-neighboring sets its prefix-env and
  lowering-plan caches stay warm for (each worker is its own
  single-process pool precisely so the routing — not pool timing —
  decides placement).

Workers are primed once per search with ``(function, mesh, portable env
state, device)``; under the default ``fork`` start method that
transfer is free, and everything in the payload is picklable for ``spawn``
platforms (see ``ShardingEnv.portable_state`` and
``StreamingEstimator.__getstate__``).

The process backend additionally wires every evaluator — the main
process's and each worker's — into one **cross-worker shared plan memo**
(:mod:`repro.auto.sharedmemo`): cold per-op lowering plans and
reconcile-chain costs are published to a shared-memory append log and
adopted by siblings on their next evaluation, so the pool as a whole
plans each distinct neighborhood once instead of once per process.
``SearchResult.shared_plan_hits`` aggregates the cold computations
avoided.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.sharding import ShardingEnv

from repro.auto import faults, sharedmemo
from repro.auto.evaluator import Evaluator
from repro.auto.tree import ActionKey, TreePolicy, _stable_hash


def key_lcp(a: ActionKey, b: ActionKey) -> int:
    """Longest common prefix (in actions) of two canonical action sets —
    the undo engine's measure of how much applied-prefix state survives
    between two consecutive evaluations."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i

#: Default worker count for the process backend.
DEFAULT_WORKERS = 2

BACKENDS = ("serial", "batched", "process", "remote")

#: Ceiling on one worker slice of one wave; a pool that produces nothing
#: for this long is treated as wedged and healed like a dead one.
DEFAULT_WAVE_TIMEOUT_S = 300.0
#: Pool re-forks (process) / session re-connects (remote) allowed per
#: search before the backend degrades to in-process serial evaluation.
DEFAULT_RESTART_BUDGET = 1
#: Per-call socket deadline for the remote backend.
DEFAULT_RPC_TIMEOUT_S = 60.0
#: Reconnect attempts per healed remote session (exponential backoff).
RECONNECT_ATTEMPTS = 3

ENV_WAVE_TIMEOUT = "PARTIR_WAVE_TIMEOUT_S"
ENV_RESTART_BUDGET = "PARTIR_RESTART_BUDGET"

#: How often a collecting wave polls its futures for completion or
#: worker death.  Collection still folds results in submission order, so
#: the poll cadence never affects results — only failure latency.
_POLL_S = 0.05


def _env_positive(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return default


class SchedulerUnavailable(RuntimeError):
    """A backend's resources could not be reached (e.g. the ``remote``
    backend's plan server is down); callers may fall back to a local
    backend."""


class RolloutScheduler:
    """Drives ``budget`` rollouts of ``policy`` through ``evaluator``.

    ``on_result(key, cost)`` fires once per rollout in wave order (the
    deterministic record the caller tracks the incumbent best with);
    rewards are backed up through the leaf that proposed the rollout.
    """

    name = "base"

    def __init__(self, wave_size: Optional[int] = None,
                 workers: Optional[int] = None,
                 plan_server=None,
                 restart_budget: Optional[int] = None,
                 wave_timeout_s: Optional[float] = None,
                 rpc_timeout_s: Optional[float] = None,
                 seed: int = 0):
        self.wave_size = wave_size
        self.workers = workers
        self.seed = seed
        #: Only the ``remote`` backend reads these two.
        self.plan_server = plan_server
        self.rpc_timeout_s = (rpc_timeout_s if rpc_timeout_s is not None
                              else DEFAULT_RPC_TIMEOUT_S)
        self.restart_budget = int(
            restart_budget if restart_budget is not None
            else _env_positive(ENV_RESTART_BUDGET, DEFAULT_RESTART_BUDGET)
        )
        self.wave_timeout_s = (
            wave_timeout_s if wave_timeout_s is not None
            else _env_positive(ENV_WAVE_TIMEOUT, DEFAULT_WAVE_TIMEOUT_S)
        )
        self._started = False
        #: Per-wave longest-common-prefix statistics over the order the
        #: wave's distinct keys were actually evaluated in: number of
        #: waves, consecutive pairs, and summed LCP actions.  Surfaced via
        #: ``SearchResult`` (``waves`` / ``wave_lcp_mean``).
        self.waves = 0
        self.wave_lcp_pairs = 0
        self.wave_lcp_actions = 0
        #: Self-healing record, surfaced via ``SearchResult``: worker
        #: pools re-forked / remote sessions re-connected, wave slices
        #: re-routed after a failure, and — past the restart budget —
        #: which in-process backend the search degraded to ("" = never).
        self.workers_restarted = 0
        self.waves_retried = 0
        self.degraded_to = ""
        self._restarts_left = self.restart_budget

    def _degrade(self, reason: str) -> None:
        """Terminal rung of the degradation ladder: score every remaining
        rollout on the main process's evaluator.  Evaluation is a pure
        function of the canonical key, so the switch changes which CPU
        does the work — never the costs, and never the search trajectory
        (``run`` backs up in wave order regardless of who evaluated)."""
        if not self.degraded_to:
            self.degraded_to = "serial"
            warnings.warn(
                f"{self.name} rollout backend degraded to in-process "
                f"serial evaluation: {reason} (results are unaffected; "
                f"raise PARTIR_RESTART_BUDGET to keep healing instead)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _note_wave_order(self, ordered: Sequence[ActionKey]) -> None:
        self.waves += 1
        for prev, key in zip(ordered, ordered[1:]):
            self.wave_lcp_pairs += 1
            self.wave_lcp_actions += key_lcp(prev, key)

    # -- the wave loop ------------------------------------------------------

    def prepare(self, evaluator: Evaluator) -> None:
        """Start backend resources early (optional).

        The process scheduler forks its worker pools here: ``Pool()``
        returns as soon as the children exist, so their initializers —
        which prime each worker's caches with a full root evaluation —
        run concurrently with the main process's own baseline evaluation.
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
                tours: Dict[ActionKey, tuple] = {}
                for _ in range(count):
                    node, key = policy.next_rollout()
                    node.apply_virtual_loss()
                    wave.append((node, key))
                    # Euler-tour position of the rollout's leaf; duplicate
                    # keys keep the earliest (deterministic: expansion
                    # order fixes tour paths per seed).
                    tour = node.tour_path
                    existing = tours.get(key)
                    if existing is None or tour < existing:
                        tours[key] = tour
                costs = self._evaluate_wave(
                    evaluator, [key for _, key in wave], tours
                )
                for node, key in wave:
                    node.revert_virtual_loss()
                    cost = costs[key]
                    on_result(key, cost)
                    # Reward = relative improvement over the empty set.
                    reward = (baseline - cost) / max(baseline, 1e-12)
                    # Fold the rollout into the per-action-group prior
                    # statistics before backing up, in wave order — the
                    # same deterministic order on_result fires in, so
                    # every backend's prior trajectory is reproducible
                    # (and batched wave_size=1 stays bit-identical to
                    # serial, priors included).
                    policy.note_result(key, reward)
                    node.backup(reward)
                done += count
        finally:
            self.shutdown()

    def _effective_wave_size(self, budget: int) -> int:
        return self.wave_size or 1

    def _start(self, evaluator: Evaluator) -> None:
        pass

    def _stop(self) -> None:
        pass

    def _evaluate_wave(self, evaluator: Evaluator, keys: Sequence[ActionKey],
                       tours: Dict[ActionKey, tuple]) -> Dict[
                           ActionKey, float]:
        raise NotImplementedError


class SerialScheduler(RolloutScheduler):
    """One rollout in flight: the classic MCTS loop, bit-identical."""

    name = "serial"

    def _effective_wave_size(self, budget: int) -> int:
        return 1

    def _evaluate_wave(self, evaluator, keys, tours):
        self._note_wave_order(list(keys))
        return {key: evaluator.evaluate(key) for key in keys}


class BatchedScheduler(RolloutScheduler):
    """A wave of leaves in flight, scored through shared prefix envs."""

    name = "batched"
    DEFAULT_WAVE = 8

    def _effective_wave_size(self, budget: int) -> int:
        return self.wave_size or min(self.DEFAULT_WAVE, max(budget, 1))

    def _evaluate_wave(self, evaluator, keys, tours):
        # Prefix-aware wave ordering: score the wave's distinct sets along
        # the tree's Euler tour (leaf ``tour_path``, ties by key), so
        # consecutive evaluations come from neighboring subtrees and the
        # undo engine's rollback/extend distance tracks the true edit
        # distance between rollouts instead of jumping across the tree.
        # Only the *evaluation* order changes — ``run`` backs results up
        # in wave order regardless, so a wave of one stays bit-identical
        # to the serial loop.
        ordered = sorted(set(keys), key=lambda key: (tours.get(key, ()), key))
        self._note_wave_order(ordered)
        return {key: evaluator.evaluate(key) for key in ordered}


# -- process backend ---------------------------------------------------------------

# Per-worker evaluator, primed once by _worker_init (fork or spawn safe).
_WORKER_EVALUATOR: Optional[Evaluator] = None


def _worker_init(function, mesh, portable_env, device,
                 shared_handle=None) -> None:
    global _WORKER_EVALUATOR
    # Re-arm the fault plan from PARTIR_FAULT_PLAN with *fresh* per-site
    # counters: a forked worker otherwise inherits the parent plan object
    # mid-count, making worker fault schedules depend on how much the
    # parent fired before the fork.  No plan installed -> clears to the
    # zero-overhead fast path.
    faults.reload_from_env()
    env = ShardingEnv(mesh)
    env.apply_portable_state(function, portable_env)
    _WORKER_EVALUATOR = Evaluator(function, env, device)
    if shared_handle is not None:
        store = sharedmemo.attach_store(shared_handle)
        _WORKER_EVALUATOR._estimator.attach_shared_store(store)
    # Prime the worker's per-op plan and reconcile-chain memos with the
    # root env's full evaluation.  Initializers run while the main process
    # computes its own baseline, so each worker's one unavoidable
    # cold-cache full plan hides behind work the search does anyway.
    _WORKER_EVALUATOR.evaluate(())


def _worker_evaluate(key: ActionKey):
    """Score one key in this process's primed evaluator (pool target)."""
    if faults.should_fire("worker.exit"):
        # Simulate an OOM-kill/segfault: die without cleanup, result
        # never delivered.  The parent's liveness poll sees the pid
        # change and re-routes this key.
        os._exit(17)
    return evaluate_with_deltas(_WORKER_EVALUATOR, key)


def evaluate_with_deltas(evaluator: Evaluator, key: ActionKey):
    """Score one key; return the cost plus this call's counter deltas so
    the main evaluator's observability (and the benchmark JSONs) reflect
    worker-side cache behavior, not just the main process's.  Shared by
    the process pool workers and the plan server's evaluator sessions —
    both speak the same 13-tuple (slot 8, once the materializing path's
    ``lower_calls``, is always 0: peers of either age unpack 13)."""
    stats = evaluator.root.stats
    before = (
        evaluator.propagate_time_s,
        evaluator.estimate_time_s,
        stats.ops_processed,
        stats.propagate_calls,
        evaluator.estimate_ops_reused,
        evaluator.reconcile_chain_hits,
        evaluator.shared_plan_hits,
        evaluator.prefix_actions_total,
        evaluator.prefix_actions_reused,
    )
    cost = evaluator.evaluate(key)
    return (
        key,
        cost,
        evaluator.propagate_time_s - before[0],
        evaluator.estimate_time_s - before[1],
        stats.ops_processed - before[2],
        stats.propagate_calls - before[3],
        evaluator.estimate_ops_reused - before[4],
        evaluator.reconcile_chain_hits - before[5],
        0,
        evaluator.shared_plan_hits - before[6],
        evaluator.shared_memo_full,
        evaluator.prefix_actions_total - before[7],
        evaluator.prefix_actions_reused - before[8],
    )


def _fold_delta(evaluator: Evaluator, result, store=None) -> None:
    """Fold one worker 13-tuple's counter deltas into the main evaluator
    (shared by the process and remote backends) and memoize its cost."""
    (key, cost, prop_dt, est_dt, ops, prop_calls, ops_reused,
     chain_hits, _, shared_hits, shared_full,
     prefix_total, prefix_reused) = result
    evaluator.evaluations += 1
    evaluator.propagate_time_s += prop_dt
    evaluator.estimate_time_s += est_dt
    evaluator.remote_ops_processed += ops
    evaluator.remote_propagate_calls += prop_calls
    evaluator.remote_ops_reused += ops_reused
    evaluator.remote_reconcile_hits += chain_hits
    evaluator.remote_shared_plan_hits += shared_hits
    evaluator.remote_shared_full |= shared_full
    if shared_full and store is not None:
        # Workers never warn themselves; surface the segment fill as the
        # main process's one-shot RuntimeWarning.
        store.note_remote_full()
    evaluator.remote_prefix_actions_total += prefix_total
    evaluator.remote_prefix_actions_reused += prefix_reused
    evaluator.table.store(tuple(map(tuple, key)), cost)


class _AffinityScheduler(RolloutScheduler):
    """Shared wave-routing machinery for backends with evaluator-owning
    workers (``process`` pools, ``remote`` server sessions): table-hit
    filtering, Euler-tour ordering, and LCP-affine placement over
    ``self._nslots`` worker slots."""

    def _effective_wave_size(self, budget: int) -> int:
        workers = self.workers or DEFAULT_WORKERS
        return self.wave_size or min(max(budget, 1), 2 * workers)

    def _split_wave(self, evaluator, keys, tours):
        """Serve table hits locally; return ``(costs, tour-ordered
        misses)`` for the backend to fan out."""
        costs: Dict[ActionKey, float] = {}
        misses: List[ActionKey] = []
        # Euler-tour order (see BatchedScheduler): each worker's slice of
        # the wave is then a run of tree-neighboring sets, which its undo
        # engine extends with short rollbacks.
        for key in sorted(set(keys),
                          key=lambda key: (tours.get(key, ()), key)):
            cached = evaluator.table.lookup(key)
            if cached is not None:
                costs[key] = cached
            else:
                misses.append(key)
        self._note_wave_order(misses)
        return costs, misses

    def _route(self, key: ActionKey) -> int:
        """Home worker index for a canonical action set (affinity-free
        fallback).

        Hashing the *leading* action sends every set extending a given
        prefix to the same worker, wave after wave — the worker's cached
        prefix envs and lowering plans then serve its whole slice of the
        action space."""
        return _stable_hash(key[:1]) % self._nslots

    def _route_wave(self, ordered: Sequence[ActionKey]) -> Dict[
            int, List[ActionKey]]:
        """Assign a tour-ordered wave of table misses to workers by
        longest-common-prefix affinity.

        Each key goes to the eligible worker whose *last routed key*
        shares the longest canonical prefix — i.e. the worker whose undo
        engine is already standing closest to the requested state.  Ties
        fall back to the stable leading-action home (keeping each prefix
        slice on one worker across waves), then to the lowest index.  A
        per-wave cap of ``ceil(misses / workers)`` keeps the fan-out
        balanced, so affinity can never starve the pool down to one busy
        worker.  Everything here is a function of the wave content and
        the routing history — never of pool timing — so placement stays
        deterministic for a fixed seed."""
        npools = self._nslots
        cap = -(-len(ordered) // npools) if ordered else 0
        assignments: Dict[int, List[ActionKey]] = {w: [] for w in
                                                   range(npools)}
        last = self._last_key
        for key in ordered:
            home = self._route(key)
            best = max(
                (w for w in range(npools) if len(assignments[w]) < cap),
                key=lambda w: (
                    key_lcp(key, last[w]) if last[w] is not None else 0,
                    w == home,
                    -w,
                ),
            )
            assignments[best].append(key)
            last[best] = key
        return {w: keys for w, keys in assignments.items() if keys}


class ProcessScheduler(_AffinityScheduler):
    """Waves fanned across evaluator-owning worker processes.

    Each worker is a single-process pool of its own, so the prefix-affine
    routing — not pool scheduling timing — decides which worker scores
    which action set.  That keeps placement (and therefore each worker's
    cache contents) deterministic for a fixed seed.

    Self-healing: wave collection polls each worker's pid alongside its
    result, so a worker that dies (or produces nothing within
    ``wave_timeout_s``) is detected mid-wave; its pool is terminated and
    re-forked (within ``restart_budget``), its unfinished keys re-routed
    across the survivors, and past the budget the scheduler degrades to
    in-process serial evaluation — a rollout is never lost, because every
    evaluation is a pure function of the canonical key and re-executes
    bit-identically anywhere.
    """

    name = "process"

    def _start(self, evaluator: Evaluator) -> None:
        workers = self.workers or DEFAULT_WORKERS
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # The evaluator's single env must be at the root (empty prefix)
        # state before its shardings are snapshotted for the workers'
        # baselines.
        evaluator._env_for(())
        # Cross-worker shared plan memo: one shared-memory append log for
        # the whole search; the main evaluator joins too, so its baseline
        # evaluation seeds the store while the pools fork.
        self._store = sharedmemo.create_store(context)
        evaluator._estimator.attach_shared_store(self._store)
        root = evaluator.root
        initargs = (
            evaluator.function,
            root.mesh,
            root.portable_state(evaluator.function),
            evaluator.device,
            self._store.handle() if self._store is not None else None,
        )
        pools = []
        try:
            for _ in range(workers):
                pools.append(context.Pool(1, initializer=_worker_init,
                                          initargs=initargs))
        except BaseException:
            # A mid-list Pool() failure (fork limits, memory pressure)
            # must not leak the workers already forked.
            for pool in pools:
                pool.terminate()
                pool.join()
            raise
        self._context = context
        self._initargs = initargs
        self._pools = pools
        self._nslots = len(pools)
        #: The pids each pool was forked with.  ``multiprocessing.Pool``
        #: silently replaces a dead worker (losing its in-flight task),
        #: so liveness is "still the same pid", not "some process alive".
        self._pids = [tuple(p.pid for p in pool._pool) for pool in pools]
        #: Last key routed to each worker — the affinity anchor the
        #: LCP router extends wave after wave.
        self._last_key: List[Optional[ActionKey]] = [None] * len(pools)

    def _stop(self) -> None:
        for pool in self._pools:
            try:
                pool.close()
            except ValueError:  # already terminated by _heal
                pass
        for pool in self._pools:
            pool.join()
        self._pools = []
        if self._store is not None:
            self._store.close()
            self._store.unlink()
            self._store = None

    # -- self-healing -------------------------------------------------------

    def _worker_broken(self, worker: int) -> bool:
        pool = self._pools[worker]
        procs = getattr(pool, "_pool", None)
        if not procs:
            return True
        return any(
            proc.pid != pid or not proc.is_alive()
            for proc, pid in zip(procs, self._pids[worker])
        )

    def _collect(self, worker: int, future):
        """This worker's slice of the wave, or None when the worker died
        or went silent past ``wave_timeout_s`` (the caller re-routes).
        Evaluation errors still propagate — a raising rollout is a bug,
        not a fault to heal."""
        deadline = time.monotonic() + self.wave_timeout_s
        while True:
            try:
                return future.get(timeout=_POLL_S)
            except multiprocessing.TimeoutError:
                if self._worker_broken(worker):
                    return None
                if time.monotonic() > deadline:
                    return None

    def _heal(self, broken: Sequence[int]) -> None:
        """Re-fork each broken worker's pool within the restart budget;
        past it, degrade to in-process serial for the rest of the search."""
        for worker in broken:
            pool = self._pools[worker]
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass
            if self._restarts_left > 0:
                self._restarts_left -= 1
                try:
                    fresh = self._context.Pool(
                        1, initializer=_worker_init,
                        initargs=self._initargs,
                    )
                except Exception:
                    self._degrade(f"worker {worker} could not be re-forked")
                    return
                self._pools[worker] = fresh
                self._pids[worker] = tuple(p.pid for p in fresh._pool)
                self.workers_restarted += 1
            else:
                self._degrade(
                    f"worker {worker} failed with no restart budget left "
                    f"({self.restart_budget} used)"
                )
                return

    def _evaluate_wave(self, evaluator, keys, tours):
        costs, misses = self._split_wave(evaluator, keys, tours)
        pending = list(misses)
        while pending:
            if self.degraded_to:
                for key in pending:
                    costs[key] = evaluator.evaluate(key)
                break
            routed = sorted(self._route_wave(pending).items())
            futures = [
                (worker, worker_keys,
                 self._pools[worker].map_async(_worker_evaluate,
                                               worker_keys,
                                               chunksize=len(worker_keys)))
                for worker, worker_keys in routed
            ]
            # Collect in submission (sorted-worker) order: the fold order
            # of counter deltas — and therefore every downstream counter —
            # stays deterministic whether or not anything failed.
            failed: List[ActionKey] = []
            broken: List[int] = []
            for worker, worker_keys, future in futures:
                results = self._collect(worker, future)
                if results is None:
                    failed.extend(worker_keys)
                    broken.append(worker)
                    continue
                for result in results:
                    costs[result[0]] = result[1]
                    _fold_delta(evaluator, result, store=self._store)
            if not failed:
                break
            self.waves_retried += 1
            self._heal(broken)
            pending = failed
        return costs


class RemoteScheduler(_AffinityScheduler):
    """Waves fanned across evaluator sessions on a plan server.

    Mirrors :class:`ProcessScheduler` — one primed evaluator per worker,
    LCP-affine placement, 13-tuple counter deltas back — except the
    workers live behind ``plan_server`` socket connections, so the same
    search can span machines.  No shared plan memo crosses the wire (the
    server's sessions share a process, which is better than a memo).

    Self-healing: every call carries a ``rpc_timeout_s`` socket deadline;
    a failed worker slice (reset, timeout, server-side error) is retried
    through a fresh connection — bounded exponential backoff whose jitter
    is a deterministic hash of the search seed, then a replayed
    ``eval_init`` so the new session is primed identically — and past the
    restart budget the scheduler degrades to in-process serial
    evaluation, same terminus as the process backend.
    """

    name = "remote"

    def __init__(self, **knobs):
        super().__init__(**knobs)
        if self.plan_server is None:
            raise ValueError(
                "backend='remote' requires plan_server='host:port'"
            )

    def _start(self, evaluator: Evaluator) -> None:
        from repro.auto import rpc

        workers = self.workers or DEFAULT_WORKERS
        # Same discipline as the process backend: snapshot the root
        # (empty prefix) state for the sessions' baselines.
        evaluator._env_for(())
        root = evaluator.root
        init = {
            "kind": "eval_init",
            "function": evaluator.function,
            "mesh": root.mesh,
            "env": root.portable_state(evaluator.function),
            "device": evaluator.device,
        }
        self._init = init  # replayed verbatim by _reconnect
        connections = []
        try:
            for _ in range(workers):
                connection = rpc.connect(self.plan_server,
                                         timeout=self.rpc_timeout_s)
                connection.request(init)
                connections.append(connection)
        except (OSError, rpc.RemoteError) as exc:
            for connection in connections:
                connection.close()
            raise SchedulerUnavailable(
                f"plan server {self.plan_server!r} unavailable: {exc}"
            ) from exc
        self._connections = connections
        self._nslots = len(connections)
        self._last_key: List[Optional[ActionKey]] = [None] * len(
            connections)
        self._executor = ThreadPoolExecutor(
            max_workers=len(connections),
            thread_name_prefix="partir-remote",
        )

    def _stop(self) -> None:
        for connection in self._connections:
            try:
                connection.request({"kind": "eval_close"})
            except Exception:
                pass
            connection.close()
        self._connections = []
        self._executor.shutdown(wait=True)

    # -- self-healing -------------------------------------------------------

    def _reconnect(self, worker: int) -> bool:
        """Re-open ``worker``'s session: bounded exponential backoff with
        deterministic jitter (a stable hash of the search seed and the
        retry coordinates — every run of a seed backs off identically),
        then a replay of the saved ``eval_init`` so the fresh session is
        primed exactly like the one it replaces."""
        from repro.auto import rpc

        for attempt in range(RECONNECT_ATTEMPTS):
            delay = min(0.05 * (2 ** attempt), 1.0)
            jitter = _stable_hash(
                (self.seed, worker, attempt, self.workers_restarted)
            ) % 1000 / 2000.0  # +0..50%
            time.sleep(delay * (1.0 + jitter))
            try:
                connection = rpc.connect(self.plan_server,
                                         timeout=self.rpc_timeout_s)
                connection.request(self._init)
            except (rpc.RemoteError, ConnectionError, OSError):
                continue
            self._connections[worker] = connection
            return True
        return False

    def _heal_remote(self, broken: Sequence[int]) -> None:
        for worker in broken:
            try:
                self._connections[worker].close()
            except Exception:
                pass
            if self._restarts_left > 0:
                self._restarts_left -= 1
                if self._reconnect(worker):
                    self.workers_restarted += 1
                    continue
                self._degrade(
                    f"session {worker} could not reconnect to "
                    f"{self.plan_server!r} after {RECONNECT_ATTEMPTS} "
                    f"attempts"
                )
                return
            self._degrade(
                f"session {worker} failed with no restart budget left "
                f"({self.restart_budget} used)"
            )
            return

    def _evaluate_wave(self, evaluator, keys, tours):
        from repro.auto import rpc

        costs, misses = self._split_wave(evaluator, keys, tours)
        pending = list(misses)
        while pending:
            if self.degraded_to:
                for key in pending:
                    costs[key] = evaluator.evaluate(key)
                break
            routed = sorted(self._route_wave(pending).items())
            futures = [
                (worker, worker_keys, self._executor.submit(
                    self._connections[worker].request,
                    {"kind": "eval",
                     "keys": [list(k) for k in worker_keys]},
                ))
                for worker, worker_keys in routed
            ]
            failed: List[ActionKey] = []
            broken: List[int] = []
            for worker, worker_keys, future in futures:
                try:
                    results = future.result()
                except (rpc.RemoteError, ConnectionError, OSError):
                    # RemoteError included: a server-side eval failure
                    # (e.g. its request deadline fired) retires this
                    # session's state, so reconnect-and-re-init is the
                    # correct recovery either way.
                    failed.extend(worker_keys)
                    broken.append(worker)
                    continue
                for result in results:
                    key = tuple(map(tuple, result[0]))
                    costs[key] = result[1]
                    _fold_delta(evaluator, result)
            if not failed:
                break
            self.waves_retried += 1
            self._heal_remote(broken)
            pending = failed
        return costs


_SCHEDULERS = {
    "serial": SerialScheduler,
    "batched": BatchedScheduler,
    "process": ProcessScheduler,
    "remote": RemoteScheduler,
}


def make_scheduler(backend: str, **knobs) -> RolloutScheduler:
    """The ``backend`` scheduler; ``knobs`` are :class:`RolloutScheduler`'s
    constructor keywords."""
    try:
        cls = _SCHEDULERS[backend]
    except KeyError:
        raise ValueError(
            f"unknown search backend {backend!r}; expected one of {BACKENDS}"
        )
    return cls(**knobs)
