"""The plan server's LRU-evicting plan store.

One :class:`PlanStore` holds the partition plans a
:class:`repro.auto.server.PlanServer` has computed, keyed on **two
tiers**:

* the **relaxed tier** — the canonicalized fingerprint of
  :mod:`repro.auto.fingerprint` plus the search parameters, under which
  isomorphic programs (alpha-renamed tags, permuted inputs) share one
  entry; plans are stored in *canonical* index space and translated into
  each requester's local space on the way out, and
* the **exact tier** — every exact :func:`function_fingerprint` that was
  ever served by an entry indexes back to it, so byte-identical programs
  hit without any canonicalization subtleties.

The store is deliberately **read-optimized and write-expensive** (in the
spirit of asymmetric-memory data structures: the read path is a dict
probe plus a recency-pointer move; the write path may evict, rebuild the
exact index, and rewrite the persistence log).  Reads vastly outnumber
writes on a warm server, so that is the right asymmetry — it is the same
design bias as the transposition table's append-only JSONL log, lifted
from "never rewrite" to "rewrite rarely, on eviction only".

Unlike the per-process JSONL tables (append-only, no eviction), the store
**caps its footprint**: past ``max_entries`` the least-recently-used plan
is dropped, together with its exact-tier index entries.  ``save``/``load``
persist the store as one JSONL snapshot so a restarted daemon warms up
from its predecessor's plans.
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

#: Environment variable overriding the default entry cap.
ENV_MAX_ENTRIES = "PARTIR_PLAN_STORE_ENTRIES"
DEFAULT_MAX_ENTRIES = 512


def default_max_entries() -> int:
    """The configured entry cap (``PARTIR_PLAN_STORE_ENTRIES`` or 512)."""
    raw = os.environ.get(ENV_MAX_ENTRIES)
    if raw:
        try:
            value = int(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_MAX_ENTRIES


@dataclasses.dataclass
class PlanRecord:
    """One cached partition plan, in canonical index space.

    ``actions`` are canonical-space wire tuples (translate with
    :meth:`repro.auto.fingerprint.CanonicalForm.decode_key`); ``meta`` is
    the producing :class:`~repro.auto.search.SearchResult` rendered as a
    plain dict.
    """

    key: Tuple  # (relaxed digest, search-params key)
    actions: ActionKey
    cost: float
    meta: Dict = dataclasses.field(default_factory=dict)
    hits: int = 0

    def to_json(self) -> dict:
        return {
            "key": _to_jsonable(self.key),
            "a": [list(action) for action in self.actions],
            "c": self.cost,
            "m": self.meta,
        }

    @classmethod
    def from_json(cls, record: dict) -> "PlanRecord":
        digest, params = _from_jsonable(record["key"])
        # Stores saved while the rollout prior was a plan-identity field
        # end their params key with its mode; the plan is the same search.
        if params and params[-1] in ("learned", "group", "none"):
            params = params[:-1]
        return cls(
            key=(digest, params),
            actions=_parse_key(record["a"]),
            cost=float(record["c"]),
            meta=dict(record.get("m", {})),
        )


class PlanStore:
    """LRU map of ``(relaxed digest, params key) -> PlanRecord`` plus the
    exact-fingerprint index.  Thread-safe; every public method takes the
    store lock."""

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = (max_entries if max_entries is not None
                            else default_max_entries())
        self._records: "OrderedDict[Tuple, PlanRecord]" = OrderedDict()
        self._exact: Dict[Tuple, Tuple] = {}  # (exact fp, params) -> key
        self._lock = threading.Lock()
        self.evictions = 0
        self.hits_exact = 0
        self.hits_relaxed = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def lookup(self, exact_fp: str, digest: str,
               params_key: Tuple) -> Optional[Tuple[PlanRecord, str]]:
        """The freshest record for a request, with the tier that matched
        (``"exact"`` | ``"relaxed"``), or None.  Counts the hit/miss and
        refreshes recency; an exact probe that matches through the relaxed
        key registers the exact fingerprint for next time."""
        with self._lock:
            key = self._exact.get((exact_fp, params_key))
            if key is not None:
                record = self._records.get(key)
                if record is not None:
                    self._records.move_to_end(key)
                    record.hits += 1
                    self.hits_exact += 1
                    return record, "exact"
            record = self._records.get((digest, params_key))
            if record is not None:
                self._records.move_to_end((digest, params_key))
                record.hits += 1
                self.hits_relaxed += 1
                self._exact[(exact_fp, params_key)] = (digest, params_key)
                return record, "relaxed"
            self.misses += 1
            return None

    def put(self, record: PlanRecord, exact_fp: Optional[str] = None
            ) -> None:
        """Insert (or refresh) a record; evicts LRU entries past the cap,
        dropping their exact-tier index entries with them."""
        with self._lock:
            self._records[record.key] = record
            self._records.move_to_end(record.key)
            if exact_fp is not None:
                self._exact[(exact_fp, record.key[1])] = record.key
            while len(self._records) > self.max_entries:
                evicted_key, _ = self._records.popitem(last=False)
                self._exact = {
                    probe: key for probe, key in self._exact.items()
                    if key != evicted_key
                }
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
        of records loaded.  Corrupt lines are skipped — same discipline as
        the transposition log."""
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
