"""The action-space condenser: propagation-probe equivalence pruning.

The search's action space is redundant by construction: a ``TILE_TAGGED``
on an interior value often leads to exactly the fixed point an input
tiling reaches (backward propagation carries a matmul output's free-dim
tiling to the weight column it came from), and a ``SUM_TAGGED`` on a
contracting factor writes precisely what tiling the factor's operand
would have made propagation write.  Every such duplicate action burns
rollout budget on a schedule the search has already scored.

The condenser runs once per search, between candidate enumeration and the
first rollout:

1. **probe** — for each candidate, read the write delta of applying it
   at the search's root and propagating to the fixed point
   (:meth:`repro.auto.evaluator.Evaluator.root_delta`).  The env funnels
   every write through a pointer-comparing ``set_sharding``, so the delta
   is exactly the set of values whose fixed point differs from the
   root's — the action's *semantic footprint*.  The rollouts' depth-1
   extensions replay the same deltas instead of propagating again.
2. **bucket** — actions whose footprints digest identically (value index +
   interned portable sharding, order-independent) are propagation
   equivalent: every canonical set extending one of them scores the same
   cost as the set extending any other.  They share a bucket.
3. **representative** — each bucket keeps its smallest action tuple (the
   same order the incumbent rule breaks exact cost ties with, so pruned
   and unpruned searches converging on an equivalent best report the same
   wire tuples); an action whose probe is a no-op (empty delta — it was
   enumerated as root-legal but propagation already subsumes it) is
   dominated by not acting at all and is dropped outright.  Only a
   representative can start a rollout, so the evaluator forgets every
   other action's root delta.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionTuple
from repro.core.sharding import Sharding

from repro.auto.evaluator import Evaluator


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
    # Each line is followed by a NUL (which encodes to the one byte).
    return _digest("".join(f"{pair!r}\x00" for pair in sorted(delta))
                   .encode())


def delta_digest(delta: Sequence[Tuple[int, Sharding]]) -> str:
    """:func:`footprint_digest` of ``[(i, s.portable), ...]`` for
    shardings at distinct value indices (what a root delta holds), without
    building or formatting a portable tuple or a line per write:
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


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def condense(evaluator: Evaluator, candidates: Sequence[ActionTuple], *,
             known_signatures: Optional[Dict[ActionTuple, str]] = None
             ) -> PruneReport:
    """Condense ``candidates`` to one representative per equivalence class.

    A probe is the digest of ``evaluator``'s root delta for the action
    (:func:`delta_digest`).  ``known_signatures`` supplies persisted probe
    digests (from
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
    value_ids = evaluator.function.index.value_ids
    for action in candidates:
        signature = known.get(action)
        if signature is not None:
            report.probes_reused += 1
        else:
            signature = delta_digest([
                (value_ids[value], sharding)
                for value, sharding in evaluator.root_delta(action)])
            report.probes_run += 1
        report.signatures[action] = signature
        if signature == NOOP_SIGNATURE:
            report.dropped_noop += 1
            continue
        # Only a representative starts a rollout: forget other deltas.
        representative = buckets.setdefault(signature, action)
        if action < representative:
            buckets[signature] = action
            evaluator.forget_root_delta(representative)
        elif action != representative:
            evaluator.forget_root_delta(action)
    keep = set(buckets.values())
    report.kept = [action for action in candidates if action in keep]
    report.classes = len(buckets)
    report.dropped_equivalent = (report.total - len(report.kept)
                                 - report.dropped_noop)
    report.prune_time_s = time.perf_counter() - t0
    return report
