"""Deterministic fault injection for the search fabric.

Real fleets lose workers mid-wave, reset connections mid-frame and tear
log writes.  The search survives all of those (see the degradation
ladder in ``docs/ARCHITECTURE.md``) because every rollout is a pure
function of the canonical action set — any lost work can be re-executed
bit-identically by a survivor.  This module is
how that claim is *tested*: a process-wide :class:`FaultPlan` scripts
exact failure schedules against named **injection sites** compiled into
the production code paths, so the chaos suite can replay the same
crash at the same instruction on every run.

Sites (each is checked once per site *invocation*, counted per process):

==========================  =====================================================
``worker.exit``             a process-backend worker ``os._exit``\\ s instead of
                            evaluating (simulates an OOM-kill / segfault)
``rpc.send``                a framed socket send raises ``ConnectionResetError``
                            (either worker transport, either end)
``rpc.recv``                a framed socket receive raises
                            ``ConnectionResetError``
``cache.append``            a transposition-log append stops mid-line
                            (simulates a crash during ``flush``)
``server.search``           a server-side plan search raises (simulates a
                            search timeout / crash on the daemon)
==========================  =====================================================

A plan is **installed process-wide** (:func:`install`) and exported
through the ``PARTIR_FAULT_PLAN`` environment variable so forked or
spawned search workers inherit it — each subprocess re-arms the schedule
with fresh per-site counters (:func:`reload_from_env`), which keeps
worker-side schedules deterministic regardless of what the parent fired
before forking.

The zero-overhead contract: with no plan installed, every injection site
is a single module-global ``None`` check — no schedule lookup, no lock,
no counter — and results, counters and on-disk bytes are identical to a
build without the harness.  The regression suite pins this.

>>> plan = FaultPlan({"rpc.send": [1]})
>>> plan.should_fire("rpc.send")  # invocation 0: survives
False
>>> plan.should_fire("rpc.send")  # invocation 1: scripted failure
True
>>> plan.fired
1
"""

from __future__ import annotations

import json
import os
import random
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: Every named injection site compiled into the production code paths.
SITES = (
    "worker.exit",
    "rpc.send",
    "rpc.recv",
    "cache.append",
    "server.search",
)

#: Environment variable carrying the installed plan's JSON form into
#: subprocesses (the process backend's forked/spawned workers).
ENV_PLAN = "PARTIR_FAULT_PLAN"


class FaultPlan:
    """A seeded, serializable schedule of exact failure injections.

    ``schedule`` maps a site name to the 0-based *invocation indices* at
    which that site fails in this process: ``{"worker.exit": [2]}`` kills
    a worker on its third evaluation.  Indices are per-process — every
    process (parent, forked worker, spawned worker) counts its own site
    invocations from zero, so a schedule is deterministic wherever it
    lands.  Instances are thread-safe: scheduler threads and server
    connection handlers may probe sites concurrently.
    """

    def __init__(self, schedule: Dict[str, Iterable[int]],
                 name: str = "scripted"):
        for site in schedule:
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; expected one of {SITES}"
                )
        self.schedule: Dict[str, Tuple[int, ...]] = {
            site: tuple(sorted(int(i) for i in indices))
            for site, indices in schedule.items()
        }
        self.name = name
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {site: 0 for site in SITES}
        self._fired = 0

    @classmethod
    def seeded(cls, seed: int, rate: float = 0.05,
               sites: Sequence[str] = SITES,
               horizon: int = 64) -> "FaultPlan":
        """A pseudo-random schedule, deterministic in ``seed``: each of
        the first ``horizon`` invocations of each listed site fails with
        probability ``rate``.  The chaos benchmark's fixed-fault-rate
        plans come from here."""
        rng = random.Random(seed)
        schedule = {
            site: [i for i in range(horizon) if rng.random() < rate]
            for site in sites
        }
        return cls({site: idxs for site, idxs in schedule.items() if idxs},
                   name=f"seeded:{seed}@{rate}")

    def should_fire(self, site: str) -> bool:
        """Count one invocation of ``site``; True when the schedule says
        this invocation fails."""
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            hit = index in self.schedule.get(site, ())
            if hit:
                self._fired += 1
            return hit

    @property
    def fired(self) -> int:
        """Faults this plan has injected in this process so far."""
        with self._lock:
            return self._fired

    @property
    def invocations(self) -> Dict[str, int]:
        """Per-site invocation counts observed so far (a copy)."""
        with self._lock:
            return dict(self._counts)

    # -- serialization (the subprocess-inheritance wire form) ---------------

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "schedule": {site: list(idxs)
                         for site, idxs in self.schedule.items()},
        }, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        payload = json.loads(blob)
        return cls(payload.get("schedule", {}),
                   name=payload.get("name", "scripted"))

    def __repr__(self) -> str:
        return f"FaultPlan({self.name!r}, {self.schedule!r})"


# -- process-wide installation -----------------------------------------------------

_PLAN: Optional[FaultPlan] = None
#: Has this process already decided whether ``PARTIR_FAULT_PLAN`` is set?
#: Once true, the no-plan fast path never touches the environment again.
_ENV_CHECKED = False
_INSTALL_LOCK = threading.Lock()


def install(plan: FaultPlan, export_env: bool = True) -> FaultPlan:
    """Install ``plan`` process-wide (and, by default, export it through
    ``PARTIR_FAULT_PLAN`` so subprocesses forked/spawned from here
    inherit it with fresh counters)."""
    global _PLAN, _ENV_CHECKED
    with _INSTALL_LOCK:
        _PLAN = plan
        _ENV_CHECKED = True
        if export_env:
            os.environ[ENV_PLAN] = plan.to_json()
    return plan


def uninstall() -> None:
    """Remove the installed plan and its environment export (idempotent)."""
    global _PLAN, _ENV_CHECKED
    with _INSTALL_LOCK:
        _PLAN = None
        _ENV_CHECKED = True
        os.environ.pop(ENV_PLAN, None)


def reload_from_env() -> Optional[FaultPlan]:
    """Re-arm this process's plan from ``PARTIR_FAULT_PLAN`` with fresh
    counters (or clear it when the variable is unset).

    Subprocess initializers call this: a forked worker otherwise inherits
    the parent's plan *object* mid-count, making worker schedules depend
    on how much the parent fired before the fork."""
    global _PLAN, _ENV_CHECKED
    with _INSTALL_LOCK:
        raw = os.environ.get(ENV_PLAN)
        _ENV_CHECKED = True
        if not raw:
            _PLAN = None
            return None
        try:
            _PLAN = FaultPlan.from_json(raw)
        except (ValueError, TypeError):
            _PLAN = None
        return _PLAN


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, picking up ``PARTIR_FAULT_PLAN`` lazily on the
    first call in a process that never called :func:`install` (spawned
    workers land here)."""
    plan = _PLAN
    if plan is None and not _ENV_CHECKED:
        return reload_from_env()
    return plan


def should_fire(site: str) -> bool:
    """The injection-site probe compiled into production code paths.

    The no-plan fast path is a single global check — the zero-overhead
    contract the regression suite pins."""
    plan = _PLAN
    if plan is None:
        if _ENV_CHECKED:
            return False
        plan = reload_from_env()
        if plan is None:
            return False
    return plan.should_fire(site)


def fired_count() -> int:
    """Faults injected in this process so far (0 with no plan installed).
    ``mcts_search`` snapshots this around a search to report
    ``SearchResult.faults_injected``."""
    plan = _PLAN
    return plan.fired if plan is not None else 0
