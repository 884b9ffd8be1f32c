"""The action-space condenser: propagation-probe equivalence pruning.

The search's action space is redundant by construction: a ``TILE_TAGGED``
on an interior value often propagates to exactly the fixed point an input
tiling reaches (tiling a matmul output's free dim backward-propagates to
the weight column it came from), and a ``SUM_TAGGED`` on a contracting
factor writes precisely what tiling the factor's operand would have made
propagation write.  Every such duplicate action burns rollout budget on a
schedule the search has already scored.

The condenser runs once per search, between candidate enumeration and the
first rollout:

1. **probe** — for each candidate, checkpoint the evaluator's mutable root
   env, apply the action, run one incremental-propagation fixed point,
   collect the forward write delta (:meth:`ShardingEnv.writes_since`), and
   roll back.  The env funnels every write through a pointer-comparing
   ``set_sharding``, so the delta is exactly the set of values whose fixed
   point differs from the root's — the action's *semantic footprint*.
2. **bucket** — actions whose footprints digest identically (value index +
   interned portable sharding, order-independent) are propagation
   equivalent: every canonical set extending one of them scores the same
   cost as the set extending any other.  They share a bucket.
3. **representative** — each bucket keeps its smallest action tuple (the
   same order the incumbent rule breaks exact cost ties with, so pruned
   and unpruned searches converging on an equivalent best report the same
   wire tuples); an action whose probe is a no-op (empty delta — it was
   enumerated as root-legal but propagation already subsumes it) is
   dominated by not acting at all and is dropped outright.

Probe digests persist in the transposition log (one record per action; see
:meth:`repro.auto.cache.TranspositionTable.store_probes`), so a warm run —
or the plan server re-searching a known program — buckets from the log
without touching the env: the pre-pass then costs microseconds, far under
the sub-10%-of-one-rollout overhead budget Fig 11 gates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.actions import ActionTuple, try_apply_action
from repro.core.propagate import propagate
from repro.core.sharding import Sharding, ShardingEnv
from repro.ir.function import Function


@dataclasses.dataclass
class PruneReport:
    """What one condenser pass kept, dropped and measured.

    ``kept`` preserves the candidate enumeration's documented total order
    (it is a subsequence of the input).  ``signatures`` maps every probed
    action to its fixed-point digest — the equivalence-class labels a
    persistent table stores so later runs skip the probes.
    """

    kept: List[ActionTuple]
    total: int = 0
    classes: int = 0
    dropped_equivalent: int = 0
    dropped_noop: int = 0
    probes_run: int = 0
    probes_reused: int = 0
    prune_time_s: float = 0.0
    signatures: Dict[ActionTuple, str] = dataclasses.field(
        default_factory=dict)


#: Digest of the empty footprint: the probe found the action to be a
#: propagation no-op at the root (dominated by not acting at all).
NOOP_SIGNATURE = "noop"


def footprint_digest(delta: Sequence[Tuple[int, Tuple]]) -> str:
    """Stable hex digest of one probe's fixed-point footprint.

    ``delta`` pairs canonical value indices with portable shardings; the
    digest is order-independent (sorted) and process-independent (value
    indices and portable shardings are both canonical-walk-derived), so
    digests computed by different runs — or loaded from the transposition
    log — compare equal exactly when the footprints match.
    """
    if not delta:
        return NOOP_SIGNATURE
    return _hash_lines(repr(pair) for pair in sorted(delta))


def delta_digest(delta: Sequence[Tuple[int, Sharding]]) -> str:
    """:func:`footprint_digest` of ``[(i, s.portable), ...]`` for
    shardings at distinct value indices (what a probe's
    :meth:`ShardingEnv.writes_since` yields), without building or
    formatting a portable tuple or a line per write:
    ``repr((i, portable))`` is ``"(i, " + repr(portable) + ")"``, so each
    line is a cached head per index and a cached tail per sharding (from
    :attr:`Sharding.portable_repr`).  The bytes hashed are the same, so
    the digests are — they have to be: digests persist as ``"pa"``
    records in transposition logs.
    """
    if not delta:
        return NOOP_SIGNATURE
    delta = sorted(delta, key=itemgetter(0))
    return _digest(b"".join([_HEADS[index] + _TAILS[sharding]
                             for index, sharding in delta]))


class _Heads(dict):
    """``index -> b"(index, "``, filled on first use."""

    def __missing__(self, index: int) -> bytes:
        head = self[index] = f"({index}, ".encode()
        return head


class _Tails(dict):
    """``sharding -> repr(portable) + ")" + NUL``, filled on first use
    (shardings are canonical, so this is one entry per signature)."""

    def __missing__(self, sharding: Sharding) -> bytes:
        tail = self[sharding] = f"{sharding.portable_repr})\x00".encode()
        return tail


_HEADS, _TAILS = _Heads(), _Tails()


def _hash_lines(lines: Iterable[str]) -> str:
    # Each line is followed by a NUL (which encodes to the one byte).
    return _digest("".join(f"{line}\x00" for line in lines).encode())


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def probe_action(function: Function, env: ShardingEnv,
                 action: ActionTuple) -> str:
    """One propagation probe: the action's fixed-point footprint digest.

    Checkpoints ``env``, applies the action, propagates to the fixed
    point, reads the forward write delta and rolls back — the env is
    bit-identical afterwards (undo-log restoration), so probing the
    search's live mutable root between evaluations is safe.
    """
    value_ids = function.index.value_ids
    token = env.checkpoint()
    try:
        if try_apply_action(function, env, action):
            propagate(function, env)
        delta = [
            (value_ids[value], sharding)
            for value, sharding in env.writes_since(token)
        ]
    finally:
        env.rollback(token)
    return delta_digest(delta)


def condense(function: Function, env: ShardingEnv,
             candidates: Sequence[ActionTuple], *,
             known_signatures: Optional[Dict[ActionTuple, str]] = None
             ) -> PruneReport:
    """Condense ``candidates`` to one representative per equivalence class.

    ``env`` must be at its propagation fixed point (the evaluator's root
    is).  ``known_signatures`` supplies persisted probe digests (from
    :meth:`repro.auto.cache.TranspositionTable.warm_probes`); any action
    covered there skips its probe.  The output order is the input order
    with non-representatives removed, and the choice of representative —
    the minimum wire tuple of each bucket — does not depend on which
    signatures were warm, so warm and cold condenser passes are
    bit-identical.
    """
    t0 = time.perf_counter()
    report = PruneReport(kept=[], total=len(candidates))
    known = known_signatures or {}
    buckets: Dict[str, ActionTuple] = {}
    signatures: Dict[ActionTuple, str] = {}
    for action in candidates:
        signature = known.get(action)
        if signature is not None:
            report.probes_reused += 1
        else:
            signature = probe_action(function, env, action)
            report.probes_run += 1
        signatures[action] = signature
        if signature == NOOP_SIGNATURE:
            continue
        representative = buckets.get(signature)
        if representative is None or action < representative:
            buckets[signature] = action
    keep = set(buckets.values())
    report.kept = [action for action in candidates if action in keep]
    report.classes = len(buckets)
    report.dropped_noop = sum(
        1 for action in candidates
        if signatures[action] == NOOP_SIGNATURE
    )
    report.dropped_equivalent = (report.total - len(report.kept)
                                 - report.dropped_noop)
    report.signatures = signatures
    report.prune_time_s = time.perf_counter() - t0
    return report
