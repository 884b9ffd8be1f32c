"""The transposition table: in-memory + append-only on-disk persistence.

Evaluation is a pure function of the canonical action set (given the
function, its initial shardings, the mesh and the device), so scored sets
can be reused not just within one search but across *searches*: repeated
``partir_jit``/``AutomaticPartition`` calls over the same traced function
warm-start from everything earlier calls learned.

The log carries two record types:

* **cost records** ``{"k": [[kind, index, dim, axis], ...], "c": cost}`` —
  one per first-scored canonical action set (exact-cost reuse), and
* **probe records** ``{"pa": [kind, index, dim, axis], "ps": digest}`` —
  one per candidate action the condenser (:mod:`repro.auto.prune`) has
  probed: the action's propagation-fixed-point digest, i.e. its
  equivalence-class label.  A probe's result is a pure function of the
  fingerprinted context, so the first record for an action is final; warm
  runs (and the plan server) bucket straight from the log and skip the
  probes.

Scored sets are the only search memory: the tree is a pure function of
``(candidates, seed)``, so a rerun of the same (function, mesh, device,
start state, config) replays its rollouts from the table at zero
evaluations and returns the same plan, a different seed or a larger budget
pays only for sets never scored before, and the incumbent rule keeps every
warm call at or below the best the log holds.  ("Config" includes the wave
shape: a wave under virtual loss draws a different rollout set than the
serial loop, so a ``serial`` log rerun on ``process`` pays for the few
sets only the wave reaches.)

The on-disk format is deliberately **write-lean** (in the spirit of
append-optimized structures for asymmetric memories): one JSON record per
line, appended once, never rewritten.  A cache *hit* touches no bytes on
disk; re-running a fully-warm search leaves the file byte-identical.
Reloading replays the log (last cost record wins, so a crashed
half-written tail line is simply skipped).

Files are named ``tt_<digest>_<layout>.jsonl`` after the program's
:func:`~repro.auto.fingerprint.canonicalize` form: the digest covers
structure, shapes, dtypes, cost-relevant attrs, the mesh, the device and
the initial sharding state the search starts from, and the layout pins the
spelling (parameter, tag, loop and op order).  So a log is shared exactly
by the same program as written, up to tag names: its keys stay in that
program's local index space and its costs can never leak to another
program, not even to a trace-order variant whose peak memory differs.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, List, Optional, Set, Tuple

from repro.core.sharding import ShardingEnv
from repro.ir.function import Function

from repro.auto import faults
from repro.auto.fingerprint import canonicalize
from repro.auto.tree import ActionKey


# -- JSON round-tripping of keys ---------------------------------------------------


def _parse_key(raw) -> Tuple:
    """An action key from its JSON form: a tuple of ``(kind, index, dim,
    axis)`` wire tuples."""
    key = []
    for action in raw:
        action = tuple(v if isinstance(v, str) else int(v) for v in action)
        if len(action) != 4:
            raise ValueError(f"malformed action record {action!r}")
        key.append(action)
    return tuple(key)


def _log_lines(costs, probes) -> List[str]:
    """The log's lines for ``(key, cost)`` and ``(action, digest)`` pairs."""
    records = [{"k": [list(action) for action in key], "c": cost}
               for key, cost in costs]
    records += [{"pa": list(action), "ps": digest}
                for action, digest in probes]
    return [json.dumps(record) + "\n" for record in records]


def replace_file(path: str, lines) -> None:
    """Crash-safe rewrite of ``path`` with ``lines``: temp file, ``fsync``
    of its contents *before* the atomic rename (so the rename can never
    publish an empty or partially-flushed file after a power cut), then a
    directory ``fsync`` so the rename itself is durable.  A kill at any
    point leaves either the old file intact or the complete new one."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.writelines(lines)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


# -- the table ---------------------------------------------------------------------


class TranspositionTable:
    """Canonical-action-set -> cost, with optional append-only persistence.

    ``lookup`` counts hits (and, separately, *warm* hits on entries loaded
    from disk — the cross-call reuse the persistent cache exists for).
    ``store`` registers a fresh cost and queues one record for the log;
    ``flush`` appends the queued records in one write.  The steady state
    never rewrites or rereads existing bytes; the one exception is
    :meth:`compact` — run explicitly, or automatically at load when the
    log is both large and mostly waste (duplicate keys from concurrent
    writers/crash replays, torn lines) — which rewrites the file to the
    newest record per key with hits and values unchanged.
    """

    #: Auto-compaction thresholds, checked once per load: rewrite the log
    #: when it exceeds this many bytes AND carries more than this fraction
    #: of duplicate/torn records (a healthy append-only log — every record
    #: a distinct first score — is never rewritten, no matter how big).
    COMPACT_MIN_BYTES = 1 << 20
    COMPACT_WASTE_RATIO = 0.25

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.hits = 0
        self.warm_hits = 0
        self.compactions = 0
        self._costs: Dict[ActionKey, float] = {}
        self._warm: Set[ActionKey] = set()
        self._pending: List[Tuple[ActionKey, float]] = []
        #: action wire tuple -> propagation-fixed-point digest (the
        #: condenser's persisted equivalence-class labels; first record
        #: per action wins — probes are deterministic per program).
        self._probes: Dict[Tuple, str] = {}
        self._probe_pending: List[Tuple[Tuple, str]] = []
        if path is not None and os.path.exists(path):
            records, waste = self._load(path)
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            if (size >= self.COMPACT_MIN_BYTES and records
                    and waste / records > self.COMPACT_WASTE_RATIO):
                self.compact()

    @property
    def warm_entries(self) -> int:
        return len(self._warm)

    # -- probe signatures (the condenser's equivalence classes) ---------------

    def warm_probes(self) -> Dict[Tuple, str]:
        """Persisted ``action -> fixed-point digest`` probe signatures —
        the warm-start input of :func:`repro.auto.prune.condense` (a
        covered action skips its propagation probe entirely)."""
        return dict(self._probes)

    def store_probes(self, signatures: Dict[Tuple, str]) -> None:
        """Register freshly-probed signatures and queue the new ones for
        the log.  Signatures are deterministic per program, so an
        action already covered is never re-queued (append-only, no
        churn)."""
        for action, digest in signatures.items():
            if action in self._probes:
                continue
            self._probes[action] = digest
            if self.path is not None:
                self._probe_pending.append((action, digest))

    def __len__(self) -> int:
        return len(self._costs)

    def __contains__(self, key: ActionKey) -> bool:
        return key in self._costs

    def lookup(self, key: ActionKey) -> Optional[float]:
        cost = self._costs.get(key)
        if cost is not None:
            self.hits += 1
            if key in self._warm:
                self.warm_hits += 1
        return cost

    def peek(self, key: ActionKey) -> Optional[float]:
        """Like :meth:`lookup` but without counting a hit."""
        return self._costs.get(key)

    def best_entry(self, key_filter=None) -> Optional[Tuple[ActionKey,
                                                            float]]:
        """The best ``(key, cost)`` the table knows, under the search's
        incumbent rule (lowest cost; exact ties go to the lexicographically
        smaller key), or None for an empty table.  A warm-started search
        seeds its incumbent from this, so a second call can never report a
        worse schedule than what earlier calls already scored.

        ``key_filter`` restricts the scan (e.g. to keys on the caller's
        axes — logs are shared per program across axis subsets, and a
        narrower search must never adopt an incumbent it is not allowed to
        propose)."""
        best = None
        for key, cost in self._costs.items():
            if key_filter is not None and not key_filter(key):
                continue
            if (best is None or cost < best[1]
                    or (cost == best[1] and key < best[0])):
                best = (key, cost)
        return best

    def store(self, key: ActionKey, cost: float) -> None:
        if key in self._costs:
            return
        self._costs[key] = cost
        if self.path is not None:
            self._pending.append((key, cost))

    def flush(self) -> None:
        """Append queued records to the log (no-op when nothing is new).

        A crash mid-append leaves at most one torn final line, which the
        next load skips silently — the fault-injection site
        ``cache.append`` simulates exactly that (half a line written,
        everything after it lost, in-memory state untouched)."""
        if self.path is None or not (self._pending or self._probe_pending):
            return
        lines = _log_lines(self._pending, self._probe_pending)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a") as handle:
            for line in lines:
                if faults.should_fire("cache.append"):
                    # Faithful torn write: half of this line reaches the
                    # log, the rest of the flush never happens.  The
                    # queues still clear — a crashed writer would not
                    # retry either — and nothing in memory changes, so
                    # the search continues unaffected.
                    handle.write(line[:max(1, len(line) // 2)])
                    break
                handle.write(line)
        self._pending = []
        self._probe_pending = []

    def compact(self) -> None:
        """Rewrite the log keeping exactly one (the newest) record per key.

        The in-memory table — already the last-record-wins replay of the
        log, with any torn tail skipped — *is* the compacted content, so
        hits and values are unchanged by construction.  The rewrite is
        crash-safe (:func:`replace_file`).
        """
        if self.path is None:
            return
        replace_file(self.path, _log_lines(self._costs.items(),
                                           self._probes.items()))
        # Everything queued is already part of _costs/_probes and was just
        # written; flushing it again would duplicate records.
        self._pending = []
        self._probe_pending = []
        self.compactions += 1

    def _load(self, path: str) -> Tuple[int, int]:
        """Replay the log; returns ``(records, wasted records)`` where
        wasted counts duplicate-key overwrites and torn/garbled lines — the
        load-time compaction signal.

        A garbled *final* line is the expected signature of a crashed
        writer (a torn append) and is skipped silently; garbage anywhere
        **mid-file** means real corruption — still skipped, so the intact
        records survive, but surfaced as a ``RuntimeWarning``."""
        records = 0
        waste = 0
        line_number = 0
        bad_lines: List[int] = []
        with open(path) as handle:
            for line in handle:
                line_number += 1
                line = line.strip()
                if not line:
                    continue
                records += 1
                try:
                    record = json.loads(line)
                    if "pa" in record:
                        (action,) = _parse_key([record["pa"]])
                        digest = str(record["ps"])
                        if action in self._probes:
                            waste += 1  # concurrent writers raced; first wins
                        else:
                            self._probes[action] = digest
                        continue
                    key = _parse_key(record["k"])
                    cost = float(record["c"])
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    waste += 1
                    bad_lines.append(line_number)
                    continue  # skip; classified after the scan
                if key in self._costs:
                    waste += 1  # superseded by this newer record
                self._costs[key] = cost
                self._warm.add(key)
        corrupt = [n for n in bad_lines if n < line_number]
        if corrupt:
            warnings.warn(
                f"transposition log {path!r}: skipped {len(corrupt)} "
                f"corrupt mid-file line(s) (first at line {corrupt[0]}); "
                "intact records were kept",
                RuntimeWarning,
            )
        return records, waste


def table_for(cache_dir: Optional[str], function: Function, mesh,
              device, env: Optional[ShardingEnv]) -> TranspositionTable:
    """The (possibly persistent) table for one search invocation."""
    if cache_dir is None:
        return TranspositionTable()
    canon = canonicalize(function, mesh, device, env)
    return TranspositionTable(path=os.path.join(
        cache_dir, f"tt_{canon.digest}_{canon.layout}.jsonl"))
