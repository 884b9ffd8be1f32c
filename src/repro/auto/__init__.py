"""Automatic partitioning (the AutomaticPartition tactic's search).

Package map:

* :mod:`repro.auto.search` — public entry points (``mcts_search``,
  ``run_automatic_partition``), ``SearchConfig`` and ``SearchResult``.
* :mod:`repro.auto.tree` — UCT tree policy, virtual loss, rollout RNG.
* :mod:`repro.auto.evaluator` — canonical-action-set scoring pipeline,
  and the evaluator session a rollout worker serves.
* :mod:`repro.auto.scheduler` — serial / batched (in-process waves) and
  process / remote (waves fanned across worker sessions) backends.
* :mod:`repro.auto.cache` — transposition table + on-disk persistence
  with load-time compaction.
* :mod:`repro.auto.prune` — the action-space condenser: propagation
  probes bucket candidates into equivalence classes; one representative
  each survives.
* :mod:`repro.auto.exact` — branch-and-bound exact solver over the
  condensed space (the small-instance regret oracle).
* :mod:`repro.auto.fingerprint` — program identity: ``canonicalize``
  gives the canonical digest (alpha-renamed / input-permuted isomorphic
  programs share it) and the layout (the spelling) that key the plan
  store and the transposition log.
* :mod:`repro.auto.planstore` — the plan server's LRU plan store.
* :mod:`repro.auto.rpc` / :mod:`repro.auto.server` — the
  partitioning-as-a-service daemon and its socket protocol.
"""

from repro.auto.cache import TranspositionTable
from repro.auto.evaluator import Evaluator, candidate_actions
from repro.auto.exact import ExactBudgetExceeded, ExactResult, exact_search
from repro.auto.fingerprint import CanonicalForm, canonicalize
from repro.auto.planstore import PlanRecord, PlanStore
from repro.auto.prune import PruneReport, condense
from repro.auto.scheduler import (
    BACKENDS,
    RolloutScheduler,
    SchedulerUnavailable,
    make_scheduler,
)
from repro.auto.search import (
    SearchConfig,
    SearchResult,
    mcts_search,
    run_automatic_partition,
)
from repro.auto.tree import TreePolicy, canonical_key

__all__ = [
    "candidate_actions",
    "BACKENDS",
    "CanonicalForm",
    "Evaluator",
    "ExactBudgetExceeded",
    "ExactResult",
    "PlanRecord",
    "PlanStore",
    "PruneReport",
    "RolloutScheduler",
    "SchedulerUnavailable",
    "SearchConfig",
    "SearchResult",
    "TranspositionTable",
    "TreePolicy",
    "canonical_key",
    "canonicalize",
    "condense",
    "exact_search",
    "make_scheduler",
    "mcts_search",
    "run_automatic_partition",
]
