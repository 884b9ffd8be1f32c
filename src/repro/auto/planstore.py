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
least-recently-used plan is dropped.  It lives in memory only: a
restarted daemon re-derives a plan from its transposition logs
(:mod:`repro.auto.cache`, ``--cache-dir``), which replay the first
daemon's search at zero evaluations and return the same plan.

>>> store = PlanStore(max_entries=2)
>>> for digest in "abc":
...     store.put(PlanRecord(key=(digest, ("B",)), actions=((0, 0, 0, "B"),),
...                          cost=1.0, layout="L"))
>>> store.lookup("a", ("B",), "L") is None  # the oldest was evicted
True
>>> store.lookup("b", ("B",), "L")[1]  # the populating layout
'exact'
>>> store.lookup("c", ("B",), "another spelling")[1]
'relaxed'
>>> store.stats()["evictions"], store.stats()["misses"]
(1, 1)
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.auto.tree import ActionKey

DEFAULT_MAX_ENTRIES = 512


@dataclasses.dataclass
class PlanRecord:
    """One cached partition plan, in canonical index space.

    ``actions`` are canonical-space wire tuples (translate with
    :meth:`repro.auto.fingerprint.CanonicalForm.decode_key`);
    ``layout`` is the populating program's ``CanonicalForm.layout``.
    """

    key: Tuple  # (canonical digest, search-params key)
    actions: ActionKey
    cost: float
    layout: str


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
