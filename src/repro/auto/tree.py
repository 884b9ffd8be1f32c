"""The MCTS tree: UCT nodes, virtual loss, per-rollout RNG streams.

The search state is a *set* of actions (wire tuples ``(kind, index, dim,
axis)``; see :mod:`repro.core.actions`); a tree node's path from the root
spells one ordering of such a set.  Two policies live here:

* **UCT selection** (:meth:`Node.uct_child`) with an optional **virtual
  loss**: while a leaf's evaluation is in flight (the batched and process
  schedulers keep a whole wave in flight at once), every node on its path
  counts one extra zero-reward visit.  That depresses both the mean and the
  exploration bonus along the path, steering the next selection of the same
  wave toward a *different* leaf instead of re-picking the busiest one.
  With no losses applied (the serial scheduler), the score reduces exactly
  to the classic UCT formula — serial behavior is bit-identical.
* **Per-rollout RNG streams** (:meth:`Node.draw_rng`): each rollout draws
  from a private ``random.Random`` seeded by a stable hash of
  ``(seed, node_id, draw index)`` instead of advancing one shared stream.
  A node's id is derived from its position (depth, action, canonical action
  set), never from object identity or creation order, so the stream a
  rollout consumes is independent of which backend — or which worker
  wave — happened to run it; interleaving evaluations can never perturb
  another rollout's randomness.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.actions import ActionTuple

# None is STOP.
Action = Optional[ActionTuple]
ActionKey = Tuple[ActionTuple, ...]


#: The UCT exploration constant.
EXPLORATION = 0.5


def canonical_key(actions: Sequence[ActionTuple]) -> ActionKey:
    """Canonical form of an action sequence: sorted, deduped tuple."""
    return tuple(sorted(set(actions)))


def _stable_hash(payload) -> int:
    """Process-independent 64-bit hash (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(repr(payload).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class Node:
    __slots__ = ("action", "parent", "children", "visits", "total",
                 "untried", "action_set", "depth", "node_id", "draws",
                 "virtual_loss")

    def __init__(self, action: Action, parent: Optional["Node"],
                 untried: List[Action]):
        self.action = action
        self.parent = parent
        self.children: List[Node] = []
        self.visits = 0
        self.total = 0.0
        self.virtual_loss = 0
        self.untried = list(untried)
        self.draws = 0
        # O(1) membership for "is this action already on my path" — replaces
        # the former O(n) list scans over the prefix.
        base: FrozenSet = parent.action_set if parent is not None else frozenset()
        self.action_set: FrozenSet = (
            base | {action} if action is not None else base
        )
        self.depth = parent.depth + 1 if parent is not None else 0
        self.node_id = _stable_hash(
            (self.depth, action, tuple(sorted(self.action_set)))
        )

    def path(self) -> List[ActionTuple]:
        node, actions = self, []
        while node.parent is not None:
            if node.action is not None:
                actions.append(node.action)
            node = node.parent
        return list(reversed(actions))

    def draw_rng(self, seed: int) -> random.Random:
        """The RNG stream for this node's next rollout (see module doc)."""
        self.draws += 1
        return random.Random(_stable_hash((seed, self.node_id, self.draws)))

    def uct_child(self) -> "Node":
        log_n = math.log(max(self.visits + self.virtual_loss, 1))
        def score(c: "Node") -> float:
            n = max(c.visits + c.virtual_loss, 1)
            return c.total / n + EXPLORATION * math.sqrt(log_n / n)
        return max(self.children, key=score)

    def apply_virtual_loss(self) -> None:
        """Mark this leaf's evaluation as in flight: one pessimistic
        (zero-reward) visit on every node up to the root."""
        node = self
        while node is not None:
            node.virtual_loss += 1
            node = node.parent

    def revert_virtual_loss(self) -> None:
        node = self
        while node is not None:
            node.virtual_loss -= 1
            node = node.parent

    def backup(self, reward: float) -> None:
        node = self
        while node is not None:
            node.visits += 1
            node.total += reward
            node = node.parent


class TreePolicy:
    """Selection + expansion + rollout generation over one search tree.

    Owns no evaluation: :meth:`next_rollout` returns the leaf it stopped at
    and the canonical action set to score, and the scheduler later calls
    ``leaf.backup(reward)``.  Between the two, a scheduler keeping several
    rollouts in flight brackets each leaf with
    ``apply_virtual_loss``/``revert_virtual_loss``.

    Expansion is uniform over a node's untried actions, drawn from the
    node's RNG stream, and nothing outside ``(candidates, seed)`` feeds the
    tree — so a rerun of the same search generates the same rollout keys,
    which is what lets a warm transposition table replay it without
    evaluating anything.
    """

    def __init__(self, candidates: Sequence[ActionTuple],
                 seed: int, rollout_depth: int):
        self.candidates = list(candidates)
        self.seed = seed
        self.rollout_depth = rollout_depth
        self.root = Node(None, None, [None] + self.candidates)

    def next_rollout(self) -> Tuple[Node, ActionKey]:
        node = self.root
        # Selection.
        while not node.untried and node.children:
            node = node.uct_child()
        rng = node.draw_rng(self.seed)
        # Expansion: uniform over the untried actions.
        if node.untried:
            action = node.untried.pop(rng.randrange(len(node.untried)))
            child = Node(action, node, [])
            if action is not None:
                child.untried = [None] + [
                    a for a in self.candidates if a not in child.action_set
                ]
            node.children.append(child)
            node = child
        # Rollout.  The random completion respects the remaining depth
        # budget: ``rollout_depth`` bounds the whole scored set, not just
        # the completion, so a node already at (or past) the depth budget
        # scores its *exact* action set.  An unbounded completion would
        # instead pad deep leaves with up to ``rollout_depth`` random extra
        # actions — against a condensed candidate list (no redundant
        # no-op padding left; see :mod:`repro.auto.prune`) that dilutes
        # every deep evaluation with noise and the exact optimum may never
        # be scored at all.
        actions = node.path()
        remaining = max(self.rollout_depth - len(actions), 0)
        depth = rng.randrange(remaining + 1)
        pool = [a for a in self.candidates if a not in node.action_set]
        rng.shuffle(pool)
        return node, canonical_key(actions + pool[:depth])
