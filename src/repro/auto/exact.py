"""Exact small-instance solver: branch-and-bound over the pruned space.

The MCTS is a sampler; this module is the *oracle*.  On instances small
enough to enumerate, :func:`exact_search` certifies the true optimum of
the search objective over **every canonical action set** drawn from the
(condensed) candidate list — the regret benchmark Fig 11 and the test
suite measure the 24-rollout MCTS against, in the spirit of the related
work's exact solves over control-flow constraint graphs (PAPERS.md, Cai &
Goharshady).

The enumeration is the classic subset tree: a node is a canonical set,
its children extend it with candidates strictly greater (wire-tuple
order) than its largest member, so every subset is visited exactly once
and the DFS path *is* the canonical sorted order.  That makes the undo
rollout engine the perfect substrate: moving from one DFS node to the
next is one rollback + one extension (a first action's extension replays
its root delta, which the condenser already computed).  Two prunes keep
the tree tractable:

* **bound prune** — :func:`repro.sim.costmodel.objective_lower_bound`
  with the free parallelism still available to the subtree (the distinct
  mesh axes of the remaining candidate suffix).  No extension can beat
  the bound, so a subtree whose bound already meets the incumbent is cut.
* **no-op prune** — an action that writes nothing after its prefix
  (:meth:`repro.auto.evaluator.Evaluator.last_extension_writes` == 0)
  no-ops after every extension of that prefix as well, since canonical
  sets apply in sorted order; the whole subtree is cost-identical to
  sibling subsets already enumerated and is cut.

With ``prune=True`` (default) the candidate list is condensed first
(:mod:`repro.auto.prune`), which is what makes small instances *actually*
small: equivalence classes collapse the exponent's base.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.actions import ActionTuple
from repro.core.sharding import ShardingEnv
from repro.ir.function import Function
from repro.sim import costmodel
from repro.sim.devices import TPU_V3, DeviceSpec

from repro.auto.search import SearchConfig, prepare_search


class ExactBudgetExceeded(RuntimeError):
    """The subset tree outgrew ``max_nodes`` — the instance is not small.

    Raised instead of returning a silently-unproven "optimum": an exact
    oracle that truncates is worse than no oracle."""


@dataclasses.dataclass
class ExactResult:
    """A certified optimum over the (condensed) candidate subset lattice."""

    actions: List[ActionTuple]
    cost: float
    #: Candidate actions the subset tree was built over (post-condenser).
    candidates: int
    #: Subsets actually scored (the empty set included).
    nodes: int
    #: Subtrees cut by the admissible lower bound.
    bound_pruned: int
    #: Subtrees cut because their root action no-opped after its prefix.
    noop_pruned: int
    #: Condenser classes (0 when ``prune=False``).
    prune_classes: int


def exact_search(
    function: Function,
    env: ShardingEnv,
    axes: Sequence[str],
    device: DeviceSpec = TPU_V3,
    max_nodes: int = 200_000,
    config: Optional[SearchConfig] = None,
) -> ExactResult:
    """Certify the optimum canonical action set by branch and bound.

    Shares the search's full evaluation pipeline (root fixed point,
    undo-log prefix engine, streaming estimator), so the certified costs
    are bit-comparable with what :func:`repro.auto.search.mcts_search`
    reports.  Ties between equal-cost optima resolve to the
    lexicographically smallest set — the same incumbent rule the MCTS
    uses, so `mcts best == exact best` is a meaningful equality.

    The set-up is the search's own
    (:func:`repro.auto.search.prepare_search`), so of ``config`` only the
    fields describing the candidate space are read (``prune``,
    ``max_inputs``, ``max_tag_points``) and ``cache_dir``, which reuses
    persisted condenser probe signatures and contributes every scored
    subset back to the transposition log.  Enumeration caps that drop
    candidates are not warned about here.
    """
    setup = prepare_search(function, env, axes, device,
                           config or SearchConfig())
    table, evaluator = setup.table, setup.evaluator
    order = sorted(setup.report.kept)
    # free parallelism of the suffix starting at j: the product of the
    # distinct mesh axes the remaining candidates could still introduce
    # (an axis divides an op's local FLOPs at most once, so this is the
    # largest factor any extension can shave off compute or peak memory).
    suffix_free: List[float] = [1.0] * (len(order) + 1)
    seen_axes: set = set()
    free = 1.0
    for j in range(len(order) - 1, -1, -1):
        axis = order[j][3]
        if axis not in seen_axes:
            seen_axes.add(axis)
            free *= env.mesh.size(axis)
        suffix_free[j] = free

    best_key: Tuple[ActionTuple, ...] = ()
    best_cost = evaluator.compute(())
    table.store((), best_cost)
    root_estimate = evaluator.last_estimate
    counters = {"nodes": 1, "bound": 0, "noop": 0}

    def descend(key: Tuple[ActionTuple, ...], start: int,
                estimate) -> None:
        nonlocal best_key, best_cost
        for j in range(start, len(order)):
            # Bound the whole subtree rooted at key + order[j] using the
            # parent's estimate: the child is itself an extension of key
            # drawn from order[j:], so the parent bound covers it too.
            bound = costmodel.objective_lower_bound(
                estimate, device, suffix_free[j])
            # Strict: a subtree that can only *tie* the incumbent still
            # descends, so the witness honors the lexicographic tie-break
            # the MCTS incumbent rule uses.
            if bound > best_cost:
                counters["bound"] += 1
                # suffix_free shrinks monotonically with j, so every later
                # sibling's bound is at least this one: cut them all.
                counters["bound"] += len(order) - j - 1
                return
            new_key = key + (order[j],)
            if counters["nodes"] >= max_nodes:
                raise ExactBudgetExceeded(
                    f"exact_search exceeded max_nodes={max_nodes} at "
                    f"{len(order)} candidates; this instance is not small"
                )
            cost = evaluator.compute(new_key)
            counters["nodes"] += 1
            table.store(new_key, cost)
            child_estimate = evaluator.last_estimate
            writes = evaluator.last_extension_writes()
            if cost < best_cost or (cost == best_cost
                                    and new_key < best_key):
                best_cost = cost
                best_key = new_key
            if writes == 0:
                # order[j] no-ops after this prefix — and, since canonical
                # sets apply sorted, after every extension: the subtree
                # duplicates sibling subsets' costs.
                counters["noop"] += 1
                continue
            descend(new_key, j + 1, child_estimate)

    try:
        descend((), 0, root_estimate)
    finally:
        table.flush()
    return ExactResult(
        actions=list(best_key),
        cost=best_cost,
        candidates=len(order),
        nodes=counters["nodes"],
        bound_pruned=counters["bound"],
        noop_pruned=counters["noop"],
        prune_classes=setup.report.classes,
    )
