"""The plan server's LRU-evicting plan store.

One :class:`PlanStore` holds the partition plans a
:class:`repro.auto.server.PlanServer` has computed under **one key**:
``(canonical digest, params key)`` — the canonicalized fingerprint of
:mod:`repro.auto.fingerprint` plus the search's plan identity.
Isomorphic programs (byte-identical repeats, alpha-renamed tags, permuted
inputs) share one entry; plans are stored in *canonical* index space and
translated into each requester's local space on the way out.

A hit is labelled ``"exact"`` when the requester's
:attr:`~repro.auto.fingerprint.CanonicalForm.layout` equals the populating
program's, which the record keeps: the requester is then the same program
as written (up to tag names), the translation is the identity and the
served actions are the populating search's, verbatim.  Any other hit is
``"relaxed"``: another spelling of the program — parameters, tags, loops
or independent ops in another order — whose plan was renumbered into its
index space.  The label costs no second hash: the layout comes with the
digest.

The store **caps its footprint**: past ``max_entries`` the
least-recently-used plan is dropped.  ``save``/``load`` persist the store
as one JSONL snapshot so a restarted daemon warms up from its
predecessor's plans.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.auto.cache import (
    _from_jsonable,
    _parse_key,
    _to_jsonable,
    replace_file,
)
from repro.auto.tree import ActionKey

DEFAULT_MAX_ENTRIES = 512


@dataclasses.dataclass
class PlanRecord:
    """One cached partition plan, in canonical index space.

    ``actions`` are canonical-space wire tuples (translate with
    :meth:`repro.auto.fingerprint.CanonicalForm.decode_key`); ``meta`` is
    the producing :class:`~repro.auto.search.SearchResult` rendered as a
    plain dict (kept in the snapshot for operators, never served);
    ``layout`` is the populating program's ``CanonicalForm.layout``.
    """

    key: Tuple  # (canonical digest, search-params key)
    actions: ActionKey
    cost: float
    layout: str
    meta: Dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "key": _to_jsonable(self.key),
            "a": [list(action) for action in self.actions],
            "c": self.cost,
            "m": self.meta,
            "l": self.layout,
        }

    @classmethod
    def from_json(cls, record: dict) -> "PlanRecord":
        return cls(
            key=_from_jsonable(record["key"]),
            actions=_parse_key(record["a"]),
            cost=float(record["c"]),
            layout=str(record["l"]),
            meta=dict(record.get("m", {})),
        )


class PlanStore:
    """LRU map of ``(canonical digest, params key) -> PlanRecord``.
    Thread-safe; every public method takes the store lock."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self._records: "OrderedDict[Tuple, PlanRecord]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0
        self.hits_exact = 0
        self.hits_relaxed = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def lookup(self, digest: str, params_key: Tuple,
               layout: str) -> Optional[Tuple[PlanRecord, str]]:
        """The record for a request with its label — ``"exact"`` when
        ``layout`` equals the populating program's, else ``"relaxed"`` —
        or None.  Counts the hit/miss and refreshes recency."""
        key = (digest, params_key)
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.misses += 1
                return None
            self._records.move_to_end(key)
            if record.layout == layout:
                self.hits_exact += 1
                return record, "exact"
            self.hits_relaxed += 1
            return record, "relaxed"

    def put(self, record: PlanRecord) -> None:
        """Insert (or refresh) a record; evicts LRU entries past the cap."""
        with self._lock:
            self._records[record.key] = record
            self._records.move_to_end(record.key)
            while len(self._records) > self.max_entries:
                self._records.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._records),
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "hits_exact": self.hits_exact,
                "hits_relaxed": self.hits_relaxed,
                "misses": self.misses,
            }

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Snapshot the store as JSONL (oldest first, so a reload
        reconstructs the same recency order).  Crash-safe
        (:func:`repro.auto.cache.replace_file`)."""
        with self._lock:
            records: List[PlanRecord] = list(self._records.values())
        replace_file(path, [json.dumps(record.to_json()) + "\n"
                            for record in records])

    def load(self, path: str) -> int:
        """Merge a snapshot in (newest-recency last); returns the number
        of records loaded.  Corrupt lines are skipped, the transposition
        log's discipline."""
        if not os.path.exists(path):
            return 0
        loaded = 0
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = PlanRecord.from_json(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    continue
                self.put(record)
                loaded += 1
        return loaded
