"""Automatic partitioning: Monte-Carlo tree search over tile actions.

The paper's ``AutomaticPartition`` tactic is "an interface for any
optimization algorithm"; like the paper (and AutoMap, Alabed et al. 2022),
we implement an MCTS whose actions are exactly the manual API's tile actions
and whose reward comes from the analytical cost model — so automatic and
manual tactics compose through the same action vocabulary.

This module is the public entry point of the :mod:`repro.auto` package; the
subsystem behind it has four seams:

* :mod:`repro.auto.tree` — UCT node/selection policy with virtual loss (so
  several leaves can be in flight) and per-rollout RNG streams derived from
  ``(seed, node id)`` rather than one shared generator,
* :mod:`repro.auto.evaluator` — the undo-log env + memoized streaming
  estimator evaluation pipeline; ``evaluate`` is a pure function of the canonical
  (sorted, deduped) action set,
* :mod:`repro.auto.scheduler` — the rollout backends: ``serial`` (the
  classic loop, a wave of one), ``batched`` (waves scored in-process in
  sorted key order), and ``process`` / ``remote`` (contiguous slices of
  the sorted wave fanned across evaluator sessions in forked children /
  on a plan server), and
* :mod:`repro.auto.cache` — the transposition table, including append-only
  on-disk persistence named by the program's canonical digest and layout
  (:mod:`repro.auto.fingerprint`) so repeated
  ``partir_jit``/``AutomaticPartition`` calls replay earlier scores
  (``cache_dir=``).

Every search parameter is a field of :class:`SearchConfig`, declared and
validated once and read where it is used (:func:`prepare_search`, the
schedulers); what an action kind means lives in :mod:`repro.core.actions`
alone.  The backends agree on the best actions/cost across the fixed-seed
regression suite and the Fig 11 configs: evaluation purity makes every
scored set backend-independent and the incumbent rule breaks exact cost
ties deterministically, though a parallel wave does explore a different
rollout set than the serial loop, so agreement is a pinned regression
property of these configs rather than a theorem.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing
import warnings
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core.actions import ActionTuple, describe, try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import ShardingEnv
from repro.ir.function import Function
from repro.sim.devices import TPU_V3, DeviceSpec

from repro.auto import faults
from repro.auto import prune as prune_mod
from repro.auto.cache import TranspositionTable, table_for
from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.scheduler import (
    BACKENDS,
    SchedulerUnavailable,
    make_scheduler,
)
from repro.auto.tree import ActionKey, TreePolicy, canonical_key


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Every parameter of one search, declared and validated once.

    The first six fields are the **plan identity**: two requests agreeing
    on all of them (and on the function) are the same search, so they are
    what the plan server keys its store on (:meth:`plan_identity`) and all
    a plan request ships.  The remaining seven only decide *how* the
    search executes and never change the returned actions or cost.

    * ``budget`` rollouts of at most ``rollout_depth`` actions each,
      per-rollout RNG streams from ``seed`` (the UCT constant is fixed:
      :data:`repro.auto.tree.EXPLORATION`).
    * The action space (:func:`~repro.auto.evaluator.candidate_actions`)
      is input tilings of the ``max_inputs`` largest parameters plus
      mid-function ``TILE_TAGGED``/``SUM_TAGGED`` actions at up to
      ``max_tag_points`` tag points (auto-emitted at matmul/scan/reduce
      outputs; :mod:`repro.ir.tagpoints`) and PIPELINE actions.
    * ``prune`` runs the action-space condenser (:mod:`repro.auto.prune`)
      before the first rollout: one propagation probe per candidate keeps
      one representative per propagation-equivalence class
      (``SearchResult.candidates_total`` vs ``candidates_kept``).  Probe
      signatures persist with ``cache_dir``.
    * ``backend`` selects the rollout scheduler (``serial`` / ``batched``
      / ``process`` / ``remote``; :mod:`repro.auto.scheduler`), tuned by
      ``workers`` and ``wave_size`` (positive; ``None`` is the default).
    * ``cache_dir`` persists the transposition table across calls
      (append-only, one log per program as written, up to tag names:
      :func:`~repro.auto.fingerprint.canonicalize`): a rerun
      of the same (function, mesh, device, start state, config) replays
      its rollouts from the table at zero evaluations and returns the same
      plan, a different seed or a larger budget pays only for sets never
      scored before, and the incumbent rule keeps every warm call at or
      below the best the log holds.
    * ``plan_server="host:port"`` asks a :mod:`repro.auto.server` daemon
      for the plan first: a store hit skips the local search and
      ``plan_source`` records the tier; an unreachable server warns and
      falls back to the local search.  With ``backend="remote"`` the
      search runs *here* but fans its waves across the server's evaluator
      sessions (falling back to ``serial`` if unreachable).
    * ``restart_budget`` (worker re-forks / session reconnects per
      search; default 1, 0 = degrade on the first failure) and
      ``rpc_timeout_s`` (the deadline on one worker call,
      ``process`` and ``remote`` alike; positive, default 60) bound
      *recovery*, never results: whatever fails, the search completes
      with the same best actions/cost as the fault-free serial run at
      the same seed, degrading to in-process evaluation in the limit
      (``SearchResult.degraded_to``).

    >>> SearchConfig.of(budget=8).plan_identity()["budget"]
    8
    >>> SearchConfig.of(bugdet=8)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    TypeError: unknown search option(s) ['bugdet']; valid fields: budget, ...
    """

    budget: int = 24
    rollout_depth: int = 3
    seed: int = 0
    max_inputs: int = 48
    max_tag_points: int = 16
    prune: bool = True
    # -- execution only: everything below leaves the plan unchanged --------
    backend: str = "serial"
    workers: Optional[int] = None
    wave_size: Optional[int] = None
    cache_dir: Optional[str] = None
    plan_server: Optional[str] = None
    restart_budget: Optional[int] = None
    rpc_timeout_s: Optional[float] = None

    def __post_init__(self):
        for name, allowed in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is an int: budget=True is a typo, not a budget of one.
            if not isinstance(value, allowed) or (
                    isinstance(value, bool) and bool not in allowed):
                raise TypeError(
                    f"search option {name}={value!r} must be "
                    f"{' or '.join(t.__name__ for t in allowed)}")
            if isinstance(value, numbers.Real) and not isinstance(
                    value, (bool, int, float)):
                # A numpy scalar: keep the builtin, so the seed hashes and
                # the plan key pickles/serializes like the plain number.
                value = (int if isinstance(value, numbers.Integral)
                         else float)(value)
                object.__setattr__(self, name, value)
            # Counts and timeouts; only ``seed`` may be negative.
            if (isinstance(value, numbers.Real) and value < 0
                    and name != "seed"):
                raise ValueError(
                    f"search option {name}={value!r} must not be negative")
        # Zero is no worker pool, wave or deadline (None is the default).
        for name in ("workers", "wave_size", "rpc_timeout_s"):
            if getattr(self, name) == 0:
                raise ValueError(
                    f"search option {name}=0 must be positive (None means "
                    f"the default)")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}")

    @classmethod
    def of(cls, config: Optional["SearchConfig"] = None,
           **fields) -> "SearchConfig":
        """``config`` (default: the defaults) with ``fields`` overridden;
        an unknown field name raises ``TypeError`` naming the valid ones."""
        unknown = sorted(fields.keys() - _FIELD_TYPES.keys())
        if unknown:
            raise TypeError(
                f"unknown search option(s) {unknown}; valid fields: "
                f"{', '.join(_FIELD_TYPES)}")
        config = config or cls()
        return dataclasses.replace(config, **fields) if fields else config

    def plan_identity(self) -> dict:
        """The plan-identity fields, in declaration order (the ``"search"``
        dict of a plan request; its values are the server's store key)."""
        return {name: getattr(self, name) for name in _PLAN_IDENTITY}


def _field_types() -> dict:
    """``{field: accepted types}`` in declaration order, resolved once (a
    config is built several times per served request)."""
    abstract = {int: numbers.Integral, float: numbers.Real}
    return {
        name: tuple(abstract.get(kind, kind)  # Optional[X] -> X, None
                    for kind in typing.get_args(hint) or (hint,))
        for name, hint in typing.get_type_hints(SearchConfig).items()
    }


_FIELD_TYPES = _field_types()
#: The leading fields that are a plan's identity (the rest only execute).
_PLAN_IDENTITY = tuple(_FIELD_TYPES)[:6]


@dataclasses.dataclass
class SearchResult:
    """What one :func:`mcts_search` run found and how it found it.

    ``actions`` is the best canonical action set, as wire tuples
    ``(kind, index, dim, axis)`` — read one with
    :func:`repro.core.actions.describe`.  The counters after ``cost``
    are pure observability: none of them feeds back into the search.

    >>> from repro.core.actions import describe
    >>> describe((0, 2, 0, "batch"))
    'tile_input 2 dim 0 over batch'
    >>> describe((1, 0, 1, "model"))
    'tile_tagged 0 dim 1 over model'
    """

    actions: List[ActionTuple]
    cost: float
    evaluations: int  # cost-model evaluations actually computed
    cache_hits: int = 0  # transposition-table hits
    propagate_calls: int = 0
    ops_processed: int = 0
    #: Per-op segments (an op's priced lowering plan) the streaming
    #: estimator served from its per-signature memo instead of re-planning;
    #: every evaluation looks every op up, so this counts all hits.
    estimate_ops_reused: int = 0
    #: Wall-clock split: env extension (apply + propagate) vs cost
    #: evaluation (``estimate_incremental``: one signature lookup per op,
    #: cold plan/chain resolution included, plus the one whole-function
    #: fold over the segments' cost terms).
    propagate_time_s: float = 0.0
    estimate_time_s: float = 0.0
    #: Which rollout scheduler ran the search.
    backend: str = "serial"
    #: Transposition hits on entries loaded from a persistent cache file
    #: (cross-call warm starts; subset of ``cache_hits``).
    warm_cache_hits: int = 0
    #: Whole reconcile-chain costs reused by the streaming evaluator.
    reconcile_chain_hits: int = 0
    #: Fraction of requested prefix actions the undo engine kept in place
    #: instead of rolling back and re-applying (workers included).
    prefix_reuse_ratio: float = 0.0
    #: Evaluation waves the scheduler formed (each rollout is its own wave
    #: on the serial backend).
    waves: int = 0
    #: Where the plan came from: ``"local"`` (this process searched), or
    #: ``"server:exact"`` / ``"server:relaxed"`` / ``"server:search"`` /
    #: ``"server:dedup"`` when a plan server answered.  A store hit is
    #: ``exact`` when this program's canonical layout equals the populating
    #: program's — the same program as written, up to tag names, so the
    #: actions are that search's, verbatim — and ``relaxed`` when it is
    #: another spelling (parameters, tags, loops or independent ops in
    #: another order) whose actions were translated from the populating
    #: program's numbering — see :mod:`repro.auto.planstore`.
    plan_source: str = "local"
    #: Parameters + tag points the enumeration caps (``max_inputs`` /
    #: ``max_tag_points``) silently dropped from the candidate space (a
    #: one-shot RuntimeWarning fires the first time this is nonzero).
    actions_truncated: int = 0
    #: Condenser accounting (see :mod:`repro.auto.prune`; all zero with
    #: ``prune=False``): candidates enumerated / kept after equivalence
    #: pruning, distinct propagation-fixed-point classes, probes actually
    #: run vs reused from the persisted equivalence classes, and the
    #: pre-pass wall-clock.
    candidates_total: int = 0
    candidates_kept: int = 0
    prune_classes: int = 0
    prune_probes: int = 0
    prune_probes_reused: int = 0
    prune_time_s: float = 0.0
    #: What the fault fabric actually did (all zeros/empty without an
    #: installed :class:`repro.auto.faults.FaultPlan` — the zero-overhead
    #: pin).  ``faults_injected`` counts injection-site firings in *this*
    #: process during the search; ``workers_restarted`` counts worker
    #: sessions re-opened (re-forks on ``process``, reconnects on
    #: ``remote``);
    #: ``waves_retried`` counts wave slices re-routed after a failure;
    #: ``degraded_to`` names the in-process terminus ("serial") when the
    #: restart budget ran out, "" when the backend held.
    faults_injected: int = 0
    workers_restarted: int = 0
    waves_retried: int = 0
    degraded_to: str = ""
    #: Did the ``plan_server`` circuit breaker skip (or open on) the plan
    #: request this call?  The search still completes locally.
    server_circuit_open: bool = False


#: Upper bound on one plan request's round trip — generous because a cold
#: request makes the server *run the search* before replying.  The server
#: bounds a deduplicated request's wait for that search by it too.
PLAN_REQUEST_TIMEOUT_S = 600.0

#: One-shot latch for the enumeration-cap warning (the repo's no-silent-
#: caps convention: warn loudly once, count always).
_TRUNCATION_WARNED = False


def _warn_truncation(truncation: dict, config: SearchConfig) -> int:
    """Surface dropped candidates; returns the total drop count."""
    global _TRUNCATION_WARNED
    dropped = sum(truncation.values())
    if dropped and not _TRUNCATION_WARNED:
        _TRUNCATION_WARNED = True
        warnings.warn(
            f"candidate enumeration truncated: "
            f"{truncation.get('inputs', 0)} parameter(s) beyond "
            f"max_inputs={config.max_inputs} and "
            f"{truncation.get('tag_points', 0)} tag point(s) beyond "
            f"max_tag_points={config.max_tag_points} were "
            "dropped from the action space (largest-first ranking kept "
            "the biggest values); raise the caps to search them.  "
            "SearchResult.actions_truncated counts the drop per search; "
            "this warning fires once per process.",
            RuntimeWarning,
        )
    return dropped


def _request_plan(function: Function, env: ShardingEnv,
                  axes: Sequence[str], device: DeviceSpec,
                  config: SearchConfig):
    """Ask the plan server for this function's plan.

    Returns ``(plan, circuit_open)``; ``plan=None`` means "search
    locally" (server unreachable, erroring, or its circuit breaker open —
    warned, never fatal).  The per-address breaker
    (:func:`repro.auto.rpc.breaker_for`) makes a flapping server cost one
    timeout per cooldown window instead of one per call; a
    :class:`~repro.auto.rpc.RemoteError` proves the server alive and
    counts as breaker success."""
    from repro.auto import rpc

    plan_server = config.plan_server

    def search_locally(problem: str, detail: str, circuit_open=False):
        warnings.warn(
            f"plan server {plan_server!r} {problem}, searching "
            f"locally{detail}",
            RuntimeWarning,
        )
        return None, circuit_open

    try:
        breaker = rpc.breaker_for(plan_server)
    except ValueError as exc:
        return search_locally("unreachable", f": {exc}")
    if not breaker.allow():
        return search_locally(
            "circuit open after repeated failures",
            f" (next probe within {breaker.cooldown_s:g}s)", True)
    try:
        connection = rpc.connect(plan_server,
                                 timeout=PLAN_REQUEST_TIMEOUT_S)
    except OSError as exc:
        breaker.record_failure()
        return search_locally("unreachable", f": {exc}",
                              breaker.state == rpc.CircuitBreaker.OPEN)
    try:
        value = connection.request({
            "kind": "plan",
            "function": function,
            "mesh": env.mesh,
            "env": env.portable_state(function),
            "device": device,
            "axes": list(axes),
            "search": config.plan_identity(),
        })
    except rpc.RemoteError as exc:
        # The server processed the request (it is alive): breaker-wise a
        # success, even though this call falls back to a local search.
        breaker.record_success()
        return search_locally("failed", f": {exc}")
    except OSError as exc:
        breaker.record_failure()
        return search_locally("failed", f": {exc}",
                              breaker.state == rpc.CircuitBreaker.OPEN)
    else:
        breaker.record_success()
        return value, False
    finally:
        connection.close()


class SearchSetup(NamedTuple):
    """:func:`prepare_search`'s result.  ``report.kept`` are the
    candidates; ``truncation`` counts what each enumeration cap dropped."""

    table: TranspositionTable
    evaluator: Evaluator
    report: prune_mod.PruneReport
    truncation: Dict[str, int]
    stats_before: tuple


def prepare_search(function: Function, env: ShardingEnv,
                   axes: Sequence[str], device: DeviceSpec,
                   config: SearchConfig) -> SearchSetup:
    """The one set-up of :func:`mcts_search` and
    :func:`repro.auto.exact.exact_search`: enumerate the candidates on
    ``env`` (the caller's, not the evaluator's root), open
    ``config.cache_dir``'s table, build the evaluator and, with
    ``config.prune``, condense the candidates on the evaluator's root and
    store the probe signatures.  Probes roll back, so the root is
    bit-identical afterwards, and warm signatures never change what is
    kept."""
    truncation: Dict[str, int] = {}
    candidates = candidate_actions(function, env, axes, config.max_inputs,
                                   max_tag_points=config.max_tag_points,
                                   truncation=truncation)
    # Before Evaluator.__init__: its root fixed point counts too.
    stats_before = env.stats.snapshot()
    table = table_for(config.cache_dir, function, env.mesh, device, env)
    evaluator = Evaluator(function, env, device, table=table)
    report = prune_mod.PruneReport(kept=candidates, total=len(candidates))
    if config.prune and candidates:
        report = prune_mod.condense(function, evaluator.root, candidates,
                                    known_signatures=table.warm_probes())
        table.store_probes(report.signatures)
    return SearchSetup(table, evaluator, report, truncation, stats_before)


def mcts_search(
    function: Function,
    env: ShardingEnv,
    axes: Sequence[str],
    device: DeviceSpec = TPU_V3,
    config: Optional[SearchConfig] = None,
    **fields,
) -> SearchResult:
    """UCT search; returns the best action sequence found.

    The search's parameters are the fields of :class:`SearchConfig`
    (documented there); pass a ``config``, keyword overrides of it, or
    both — an unknown keyword is a ``TypeError``.  Candidates are scored
    by one evaluation pipeline (:class:`~repro.auto.evaluator.Evaluator`:
    one mutable env moved by checkpoint/rollback, priced by the
    signature-memoized streaming estimator), bit-identical to the
    materializing reference pipeline.

    >>> from repro import Mesh, ShapeDtype, trace
    >>> from repro.core.sharding import ShardingEnv
    >>> from repro.trace import ops
    >>> traced = trace(lambda w, x: ops.reduce_sum(x @ w),
    ...                ShapeDtype((16, 16)), ShapeDtype((8, 16)))
    >>> result = mcts_search(traced.function, ShardingEnv(Mesh({"d": 2})),
    ...                      ["d"], budget=4, seed=0)
    >>> result.actions == sorted(set(result.actions))  # canonical form
    True
    >>> (result.backend, result.plan_source)
    ('serial', 'local')
    >>> result.warm_cache_hits  # no cache_dir: nothing warm to replay
    0
    """
    config = SearchConfig.of(config, **fields)
    # A repeated axis would enumerate every one of its actions twice.
    axes = list(dict.fromkeys(axes))
    backend = config.backend
    fired_before = faults.fired_count()
    server_circuit_open = False
    if config.plan_server is not None and backend != "remote":
        served, server_circuit_open = _request_plan(
            function, env, axes, device, config)
        if served is not None:
            reply_actions = canonical_key(
                tuple(tuple(action) for action in served["actions"])
            )
            return SearchResult(
                actions=list(reply_actions),
                cost=float(served["cost"]),
                evaluations=0,
                backend=backend,
                plan_source=f"server:{served['tier']}",
                faults_injected=faults.fired_count() - fired_before,
            )
    setup = prepare_search(function, env, axes, device, config)
    table, evaluator = setup.table, setup.evaluator
    actions_truncated = _warn_truncation(setup.truncation, config)
    scheduler = make_scheduler(backend, config)
    # Open the workers (a no-op for in-process backends) before the
    # baseline evaluation: worker cache-priming overlaps it.
    try:
        scheduler.prepare(evaluator)
    except SchedulerUnavailable as exc:
        warnings.warn(
            f"{backend} backend unavailable, falling back to serial: {exc}",
            RuntimeWarning,
        )
        scheduler = make_scheduler("serial", config)
        backend = scheduler.name
        scheduler.prepare(evaluator)
    try:
        baseline = evaluator.evaluate(())
    except BaseException:
        scheduler.shutdown()
        raise
    best_key: ActionKey = ()
    best_cost = baseline
    # Cross-call incumbent reuse: a warm table already knows the best
    # schedule earlier searches scored, so a repeated call can never
    # report worse than what is already on disk — even if this run's
    # rollouts explore elsewhere.  The log is shared per
    # program across axis subsets, so the incumbent is restricted to
    # what THIS call may propose: no actions on axes outside the caller's
    # list.  (Enumeration caps — max_inputs / max_tag_points — are
    # efficiency knobs, not semantic restrictions, so entries beyond them
    # stay adoptable.)  Read before the run, so only earlier calls' scores
    # count.
    axes_set = set(axes)

    def proposable(key: ActionKey) -> bool:
        return all(action[3] in axes_set for action in key)

    warm_best = table.best_entry(key_filter=proposable)

    def on_result(key: ActionKey, cost: float) -> None:
        nonlocal best_key, best_cost
        # Deterministic incumbent rule: strictly better cost wins; an exact
        # tie goes to the lexicographically smaller canonical set, so every
        # backend (whatever order its waves surface results in) reports the
        # same best.
        if cost < best_cost or (cost == best_cost and key < best_key):
            best_cost = cost
            best_key = key

    def minimal_witness(key: ActionKey, cost: float) -> ActionKey:
        # Random rollout completions often decorate the true winner with
        # actions that no-op in its context, and the padded superset is
        # what the incumbent saw first.  Greedily drop (left to right,
        # deterministically) every action whose removal leaves the cost
        # bit-identical: replay applies fewer actions, the plan store
        # dedups better, and two backends that surfaced different
        # cost-equal paddings of one core report the same set.
        for action in list(key):
            trial = tuple(a for a in key if a != action)
            if evaluator.evaluate(trial) == cost:
                key = trial
        return key

    report = setup.report
    policy = TreePolicy(report.kept, config.seed, config.rollout_depth)
    try:
        scheduler.run(policy, evaluator, config.budget, baseline, on_result)
        # This run's witness first, the warm incumbent (under the same
        # rule) second: a rerun of the same config then scores exactly
        # what its predecessor scored, so it replays from the table alone.
        best_key = minimal_witness(best_key, best_cost)
        if warm_best is not None and (
            warm_best[1] < best_cost
            or (warm_best[1] == best_cost and warm_best[0] < best_key)
        ):
            best_cost = warm_best[1]
            best_key = minimal_witness(warm_best[0], best_cost)
    finally:
        # Persist everything scored so far even when a wave dies (e.g. a
        # worker OOM-kill): the append-only log makes partial progress
        # durable, so the next run warm-starts past it.
        table.flush()

    stats_before = setup.stats_before
    stats_after = evaluator.root.stats.snapshot()
    return SearchResult(
        actions=list(best_key),
        cost=best_cost,
        evaluations=evaluator.evaluations,
        cache_hits=evaluator.cache_hits,
        propagate_calls=stats_after[0] - stats_before[0],
        ops_processed=stats_after[1] - stats_before[1],
        estimate_ops_reused=evaluator.estimate_ops_reused,
        propagate_time_s=evaluator.propagate_time_s,
        estimate_time_s=evaluator.estimate_time_s,
        backend=backend,
        warm_cache_hits=table.warm_hits,
        reconcile_chain_hits=evaluator.reconcile_chain_hits,
        prefix_reuse_ratio=evaluator.prefix_reuse_ratio,
        waves=scheduler.waves,
        actions_truncated=actions_truncated,
        candidates_total=report.total,
        candidates_kept=len(report.kept),
        prune_classes=report.classes,
        prune_probes=report.probes_run,
        prune_probes_reused=report.probes_reused,
        prune_time_s=report.prune_time_s,
        faults_injected=faults.fired_count() - fired_before,
        workers_restarted=scheduler.workers_restarted,
        waves_retried=scheduler.waves_retried,
        degraded_to=scheduler.degraded_to,
        server_circuit_open=server_circuit_open,
    )


def run_automatic_partition(
    function: Function,
    env: ShardingEnv,
    axes: Sequence[str],
    device: DeviceSpec = TPU_V3,
    config: Optional[SearchConfig] = None,
    result_sink: Optional[list] = None,
    **fields,
) -> int:
    """Entry point used by :class:`repro.api.AutomaticPartition`.

    Runs the search against a copy of the env, then applies the winning
    actions to the real env and propagates (so the tactic composes with
    earlier manual tactics and can never undo them).  The search itself
    scores candidates through the streaming cost evaluator; the winner's
    replay only re-applies actions — real device-local IR is materialized
    once, later, by ``partir_jit``'s final lowering.  When ``result_sink``
    is a list, the full :class:`SearchResult` is appended to it (the API
    layer surfaces it as ``AutomaticPartition.last_search``).
    """
    result = mcts_search(function, env, axes, device=device, config=config,
                         **fields)
    if result_sink is not None:
        result_sink.append(result)
    # Replay the winner exactly the way the evaluator scored it: one
    # propagation fixed point per canonical action.  Applying all actions
    # first and propagating once could reach a different fixed point (a
    # later action's legality check would no longer see the propagated
    # state it was evaluated under), so the env would not realize
    # ``result.cost``.
    propagate(function, env)
    applied = 0
    for action in canonical_key(result.actions):
        if try_apply_action(function, env, action):
            env.record("tile", None, action[3], ("auto {}", describe(action)))
            applied += 1
            # (A skipped action wrote nothing, so it has nothing to seed.)
            propagate(function, env)
    return applied
