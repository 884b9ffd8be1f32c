"""Scoring canonical action sets (the undo-log env + memoized streaming
estimator pipeline) and enumerating the candidates they are drawn from.

What an action kind means and how one is applied lives in
:mod:`repro.core.actions` (:func:`~repro.core.actions.try_apply_action`);
this module enumerates the legal actions (:func:`candidate_actions`) and
scores sets of them.

The evaluator is the purity boundary the whole search subsystem leans on:
``evaluate(actions)`` is a pure function of the canonical action set (given
the function, initial env, mesh and device), independent of the order the
tree discovered the set in and of which process runs the evaluation.  The
scheduler exploits that purity to run evaluations serially, in batched
waves, or fanned across worker processes — and the transposition table
(:mod:`repro.auto.cache`) to reuse scores across whole searches.

Purity is also the **recovery argument** of the fault-tolerant fabric
(:mod:`repro.auto.faults`, the self-healing schedulers): a rollout lost to
a dead worker or a reset connection is not state to reconstruct, just a
key to re-evaluate — on a re-forked worker, a reconnected server session,
or the main process itself — and the re-execution is bit-identical to
what the lost worker would have returned.  That is why the degradation
contract ("any fault schedule, same best actions/cost as the fault-free
serial run") holds by construction rather than by careful replication.

There is one evaluation path, checked against one reference:

* **env**: one mutable :class:`ShardingEnv` moved by checkpoint/rollback.
  Scoring a set retracts to the longest common prefix with the previous
  set and extends in place, one propagation fixed point per new action.
  An action applied at the root has its fixed point computed once: the
  evaluator's table of root deltas, which the condenser's probes
  (:mod:`repro.auto.prune`) read as well, replays it after that.
* **pricing**: ``StreamingEstimator.estimate_incremental``
  (:mod:`repro.sim.costmodel`), a pure function of the env's shardings
  memoized by signature: one pass looks every op's instance up on its
  adjacent shardings (binding the template of its plan-table key only
  on an unseen one) and folds the instances' pre-built records and
  pre-split terms, with the pricing formulas in :mod:`repro.sim.terms`.
* **reference**: a fresh env, one ``propagate`` per canonical action,
  then ``lower -> costmodel.estimate`` (``lower`` emits its reconcile
  chains fused) — the materializing pipeline ``partir_jit`` runs for the
  executor.  The tests'
  ``reference_cost`` oracle pins ``evaluate(key)`` bit-identical to it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import pipeline as pipeline_mod
from repro.core.actions import (
    PIPELINE,
    SUM_TAGGED,
    TILE_INPUT,
    TILE_TAGGED,
    ActionTuple,
    reduce_factors,
    sum_tagged_legal,
    tile_legal,
    try_apply_action,
)
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.ir.function import Function
from repro.ir.tagpoints import tag_points
from repro.sim import costmodel
from repro.sim.devices import DeviceSpec

from repro.auto.cache import TranspositionTable
from repro.auto.tree import ActionKey, canonical_key


def candidate_actions(function: Function, env: ShardingEnv,
                      axes: Sequence[str],
                      max_inputs: int = 48,
                      max_tag_points: int = 16,
                      truncation: Optional[Dict[str, int]] = None
                      ) -> List[ActionTuple]:
    """Enumerate the legal actions of the search's one action space.

    Actions are uniform wire tuples ``(kind, index, dim, axis)`` — see the
    kind table in :mod:`repro.core.actions`.  The enumeration order is a
    **documented total order**:

    1. **Input tilings** (``TILE_INPUT``): parameters by ``(nbytes
       descending, param index ascending)``, capped at ``max_inputs``;
       per parameter by ``(axis in the caller's given order, dim
       ascending)``.  A parameter value bound to several function inputs
       is enumerated once, at its smallest index.
    2. **Tag-point actions**: tag points
       by ``(tagged-value nbytes descending, tag-point index ascending)``,
       capped at ``max_tag_points``; per point by ``(axis in the caller's
       given order)``, within an axis first ``TILE_TAGGED`` with dim
       ascending, then ``SUM_TAGGED`` with reduce-factor index ascending.
       Tag points sharing one underlying value (e.g. a manual
       ``ops.tag`` stacked over the tracer's auto tag — same ``root``)
       are enumerated once, at the smallest tag-point index: the
       duplicates' actions would be propagation-identical, wasting
       budget.
       Distinct results of one multi-result op (scan carries) have
       distinct roots and are all enumerated.
    3. **Pipeline actions**: loop ops by
       canonical pre-order walk index
       (:func:`repro.core.pipeline.loop_ops`); per loop by ``(axis in the
       caller's given order, schedule id ascending)``.  Only loops whose
       body can legally pipeline over the axis (see
       :func:`repro.core.pipeline.pipeline_legal`) are enumerated.

    Both nbytes ties are explicitly broken by index, so the candidate list
    (and everything seeded from it: node ids, rollout RNG streams,
    fixed-seed search results) is independent of sort-stability details.
    Only actions legal at the *root* env are enumerated; legality is
    re-checked at application time, since earlier actions in a set may
    consume an axis.

    Both caps can silently narrow the space; when ``truncation`` is a
    dict, the number of parameters/tag points dropped by each cap is
    reported into its ``"inputs"``/``"tag_points"`` keys so callers can
    surface the drop (the repo's no-silent-caps convention —
    :func:`repro.auto.search.mcts_search` warns once per process and
    records ``SearchResult.actions_truncated``).
    """
    if truncation is not None:
        truncation.setdefault("inputs", 0)
        truncation.setdefault("tag_points", 0)
    seen_values = set()
    ranked = []
    for index, param in enumerate(function.params):
        if param in seen_values:
            continue
        seen_values.add(param)
        ranked.append((index, param))
    ranked.sort(key=lambda pair: (-pair[1].type.nbytes, pair[0]))
    if truncation is not None and len(ranked) > max_inputs:
        truncation["inputs"] = len(ranked) - max_inputs
    actions = []
    for index, param in ranked[:max_inputs]:
        for axis in axes:
            for dim in range(len(param.type.shape)):
                if tile_legal(env, param, dim, axis):
                    actions.append((TILE_INPUT, index, dim, axis))
    seen_roots = set()
    points = []
    for point in tag_points(function):
        # One point per underlying value: stacked markers share a root
        # (propagation-identical actions), while distinct results of one
        # multi-result op (scan carries) have distinct roots and all stay
        # enumerable.
        if point.root in seen_roots:
            continue
        seen_roots.add(point.root)
        points.append(point)
    points.sort(key=lambda p: (-p.value.type.nbytes, p.index))
    if truncation is not None and len(points) > max_tag_points:
        truncation["tag_points"] = len(points) - max_tag_points
    for point in points[:max_tag_points]:
        for axis in axes:
            for dim in range(len(point.value.type.shape)):
                if tile_legal(env, point.value, dim, axis):
                    actions.append((TILE_TAGGED, point.index, dim, axis))
            if point.source is not None:
                factors = reduce_factors(point.source)
                for f, factor in enumerate(factors):
                    if sum_tagged_legal(env, point.source, factor, axis):
                        actions.append((SUM_TAGGED, point.index, f, axis))
    for loop_index, loop_op in enumerate(pipeline_mod.loop_ops(function)):
        for axis in axes:
            for schedule_id, schedule in enumerate(pipeline_mod.SCHEDULES):
                if pipeline_mod.pipeline_legal(env, loop_op, axis, schedule):
                    actions.append((PIPELINE, loop_index, schedule_id, axis))
    return actions


class Evaluator:
    """Scores canonical action sets; owns the memoization layers.

    ``table`` is the transposition table :meth:`evaluate` consults;
    passing a shared (possibly disk-backed) table lets the scheduler and
    repeated searches pool their scores.  The evaluator itself stays cheap
    to construct in a worker process: everything it needs travels as
    ``(function, mesh, portable env state, device)``.

    Prefix state lives in one mutable env plus an undo log
    (:meth:`~repro.core.sharding.ShardingEnv.checkpoint` / ``rollback``).
    Scoring a set retracts to the longest common prefix with the previous
    set and extends in place — zero env allocation per rollout.
    Extending the root by an action replays that action's root delta
    (:meth:`root_delta`, the condenser's probe) instead of re-running the
    propagation fixed point; a deeper extension applies and propagates.
    The streaming estimator re-resolves only ops whose adjacent shardings
    it has not seen
    (:meth:`~repro.sim.costmodel.StreamingEstimator.estimate_incremental`).
    Prefix env state is a pure function of the canonical prefix, so costs
    are bit-identical to the from-scratch reference pipeline (see the
    module docstring).
    """

    def __init__(self, function: Function, env: ShardingEnv,
                 device: DeviceSpec,
                 table: Optional[TranspositionTable] = None):
        self.function = function
        self.device = device
        self.evaluations = 0
        self.propagate_time_s = 0.0
        self.estimate_time_s = 0.0
        #: Prefix accounting: of all the actions the rollouts asked to
        #: stand applied (summed |key| over ``_env_for`` calls), how many
        #: were already in place on the action stack and
        #: survived (no rollback, no re-apply)?  Surfaced as
        #: ``SearchResult.prefix_reuse_ratio``.  (:meth:`fold_reply` adds
        #: worker-side counter deltas to the counters they are deltas
        #: of — these two included.)
        self.prefix_actions_total = 0
        self.prefix_actions_reused = 0
        self.table = table if table is not None else TranspositionTable()
        #: The full CostEstimate of the most recent :meth:`compute` (None
        #: before the first).  The branch-and-bound solver
        #: (:mod:`repro.auto.exact`) reads its compute/peak-memory terms
        #: for admissible subtree bounds; the search itself never does.
        self.last_estimate = None
        # One streaming estimator for the whole search: its template,
        # instance and reconcile-chain memos are what let an evaluation
        # reuse the lowering decisions of every previously-scored state
        # that agrees on an op's neighborhood.
        self._estimator = costmodel.StreamingEstimator(
            function, env.mesh, device
        )
        # Root fixed point: search never mutates the caller's env.  The
        # clone keeps no event log — the evaluation env never reads one.
        self.root = env.copy(with_events=False)
        propagate(function, self.root)
        # The action stack mirrors the env's applied prefix (one checkpoint
        # per level); ``_root_deltas`` is :meth:`root_delta`'s table.
        self._stack: List[Tuple[ActionTuple, object]] = []
        self._root_deltas: Dict[ActionTuple, Tuple] = {}

    @property
    def cache_hits(self) -> int:
        return self.table.hits

    @property
    def estimate_ops_reused(self) -> int:
        return self._estimator.ops_reused

    @property
    def reconcile_chain_hits(self) -> int:
        return self._estimator.reconcile_hits

    @property
    def prefix_reuse_ratio(self) -> float:
        """Fraction of requested prefix actions kept in place across
        consecutive evaluations (workers included); 0.0 when nothing was
        evaluated."""
        total = self.prefix_actions_total
        return self.prefix_actions_reused / total if total else 0.0

    def _env_for(self, key: ActionKey) -> ShardingEnv:
        """Move the single mutable env to the state of canonical prefix
        ``key``: roll back to the longest common prefix with the current
        action stack, then extend one action at a time (:meth:`_extend`).
        """
        stack = self._stack
        lcp = 0
        limit = min(len(stack), len(key))
        while lcp < limit and stack[lcp][0] == key[lcp]:
            lcp += 1
        self.prefix_actions_total += len(key)
        self.prefix_actions_reused += lcp
        if lcp < len(stack):
            self.root.rollback(stack[lcp][1])
            del stack[lcp:]
        for action in key[lcp:]:
            self._extend(action)
        return self.root

    def _extend(self, action: ActionTuple) -> None:
        """Apply ``action`` on top of the stack and propagate; at the root,
        replay the action's delta from ``_root_deltas`` or record it."""
        env = self.root
        at_root = not self._stack
        token = env.checkpoint()
        delta = self._root_deltas.get(action) if at_root else None
        if delta is not None:
            for value, sharding in delta:
                env.set_sharding(value, sharding)
            env.drain_dirty()
        else:
            if try_apply_action(self.function, env, action):
                propagate(self.function, env)
            if at_root:
                self._root_deltas[action] = tuple(env.writes_since(token))
        self._stack.append((action, token))

    def root_delta(self, action: ActionTuple) -> Tuple:
        """The ``(value, sharding)`` writes of applying ``action`` at the
        root and propagating — the condenser's probe, and what every
        depth-1 extension by ``action`` replays (computed once).  Not
        rollout work: the prefix accounting and timers do not see it."""
        if action not in self._root_deltas:
            self._env_for(())
            self._extend(action)
            self._env_for(())
        return self._root_deltas[action]

    def forget_root_delta(self, action: ActionTuple) -> None:
        """Free ``action``'s root delta (an extension by it records it
        again)."""
        self._root_deltas.pop(action, None)

    def last_extension_writes(self) -> Optional[int]:
        """Env writes the most recently applied action (top of the undo
        stack) contributed, propagation included; None when nothing is
        applied.  Zero means the last action was a no-op at its position —
        the branch-and-bound solver uses this to drop subtrees whose every set is cost-identical to a sibling's
        (actions apply in canonical sorted order, so an action that
        no-ops after a given prefix no-ops after every extension of it
        too)."""
        if not self._stack:
            return None
        return len(self.root.writes_since(self._stack[-1][1]))

    def evaluate(self, actions: Sequence[ActionTuple]) -> float:
        key = canonical_key(actions)
        cached = self.table.lookup(key)
        if cached is not None:
            return cached
        cost = self.compute(key)
        self.table.store(key, cost)
        return cost

    def compute(self, key: ActionKey) -> float:
        """Score ``key`` unconditionally (no transposition-table lookup)."""
        t0 = time.perf_counter()
        env = self._env_for(key)
        t1 = time.perf_counter()
        self.propagate_time_s += t1 - t0
        estimate = self._estimator.estimate_incremental(env)
        cost = costmodel.search_objective(estimate, self.device)
        self.last_estimate = estimate
        self.estimate_time_s += time.perf_counter() - t1
        self.evaluations += 1
        return cost

    def fold_reply(self, reply: tuple) -> None:
        """Fold one worker reply (:func:`evaluate_with_deltas`) into this
        evaluator: each counter delta into its counter, the cost into the
        table."""
        (key, cost, prop_dt, est_dt, ops, prop_calls, ops_reused,
         chain_hits, prefix_total, prefix_reused) = reply
        self.evaluations += 1
        self.propagate_time_s += prop_dt
        self.estimate_time_s += est_dt
        self.root.stats.ops_processed += ops
        self.root.stats.propagate_calls += prop_calls
        self._estimator.ops_reused += ops_reused
        self._estimator.reconcile_hits += chain_hits
        self.prefix_actions_total += prefix_total
        self.prefix_actions_reused += prefix_reused
        self.table.store(tuple(map(tuple, key)), cost)


def _counters(evaluator: Evaluator) -> tuple:
    stats = evaluator.root.stats
    return (
        evaluator.propagate_time_s,
        evaluator.estimate_time_s,
        stats.ops_processed,
        stats.propagate_calls,
        evaluator.estimate_ops_reused,
        evaluator.reconcile_chain_hits,
        evaluator.prefix_actions_total,
        evaluator.prefix_actions_reused,
    )


def evaluate_with_deltas(evaluator: Evaluator, key: ActionKey) -> tuple:
    """Score one key; return the cost plus this call's counter deltas so
    the main evaluator's observability (and the benchmark JSONs) reflect
    worker-side cache behavior, not just the main process's.  The
    10-tuple is the worker reply of ``rpc.PROTOCOL`` 3:
    ``(key, cost, propagate_dt, estimate_dt, ops_processed,
    propagate_calls, ops_reused, chain_hits, prefix_total,
    prefix_reused)``."""
    before = _counters(evaluator)
    cost = evaluator.evaluate(key)
    return (key, cost) + tuple(
        now - was for now, was in zip(_counters(evaluator), before))


class EvaluatorSession:
    """The far side of a rollout worker: one primed :class:`Evaluator`
    behind the ``eval_init`` / ``eval`` / ``eval_close`` messages.

    Both worker transports dispatch to this class — the plan daemon's
    connection handler (``remote`` backend) and the forked child of the
    ``process`` backend — so a worker behaves the same wherever it runs:
    ``eval_init`` rebuilds the search's root env from ``(function, mesh,
    portable env state, device)`` and primes the estimator's memos with
    the root evaluation; ``eval`` scores a slice of canonical keys and
    answers one :func:`evaluate_with_deltas` tuple per key."""

    def __init__(self):
        self._evaluator: Optional[Evaluator] = None

    def __call__(self, message: dict):
        kind = message.get("kind")
        if kind == "eval_init":
            function = message["function"]
            env = ShardingEnv(message["mesh"])
            env.apply_portable_state(function, message["env"])
            self._evaluator = Evaluator(function, env, message["device"])
            return self._evaluator.evaluate(())
        if kind == "eval":
            if self._evaluator is None:
                raise RuntimeError("eval before eval_init on this connection")
            return [evaluate_with_deltas(self._evaluator,
                                         tuple(map(tuple, key)))
                    for key in message["keys"]]
        if kind == "eval_close":
            self.close()
            return True
        raise ValueError(f"unknown request kind {kind!r}")

    def close(self) -> None:
        self._evaluator = None
