"""Per-value sharding state: the canonical encoding of PartIR:Core loop nests.

A PartIR:Core program places ops inside nests of ``loop`` ops with ``#tile``
or ``#sum`` actions over mesh axes (Section 5).  For a given value, that nest
is fully described by:

* which mesh axes tile which dimension (ordered, outer-to-inner per dim),
* which mesh axes carry a pending ``#sum`` (the value is an unreduced
  partial, one addend per device along the axis),
* which axes are *pinned* replicated by an ``atomic`` action (Section 8),
  acting as a propagation barrier.

:class:`Sharding` is that record; :class:`ShardingEnv` maps every IR value to
one and accumulates propagation events (applied rewrites, blocked conflicts).
The invariant from Section 5.2.3 — a loop over an axis can never nest inside
another loop over the same axis — becomes "an axis appears at most once in a
Sharding"; all mutation helpers enforce it.

Two memory-model properties carry the automatic-partitioning search:

* **Interning** (:func:`intern_sharding`): one canonical immutable
  :class:`Sharding` per signature, process-wide.  Env writes compare by
  pointer, memo keys hash small ints (:attr:`Sharding.iid`), and derived
  data (``used``, ``tile_dims``, ``portable``, ``portable_repr``, the
  ``with_tile``/``with_sum`` transitions) is computed once per *distinct*
  sharding, when it is interned, and read afterwards as plain attributes
  — the propagation kernel and the condenser's digest never call a
  method or format a string for it.
* **Undo-log checkpoints** (:meth:`ShardingEnv.checkpoint` /
  ``rollback``): O(writes) snapshot/rollback of the mutable env — the
  zero-copy alternative to :meth:`ShardingEnv.copy`.  The search's
  estimator needs no change record of its own: it prices an env from its
  current shardings, memoized by signature
  (:class:`repro.sim.costmodel.StreamingEstimator`).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ShardingError
from repro.ir.values import Value
from repro.mesh import Mesh


_REPLICATED: Dict[int, "Sharding"] = {}

#: The global intern table: one canonical immutable :class:`Sharding` per
#: signature.  Writes happen under the lock; readers rely on the GIL's
#: atomic dict reads (an entry, once published, never changes), so lookups
#: on the hot path stay lock-free — the concurrency tests hammer this.
_INTERN: Dict[Tuple, "Sharding"] = {}
_INTERN_LOCK = threading.Lock()


def intern_sharding(sharding: "Sharding") -> "Sharding":
    """The canonical shared instance for ``sharding``'s signature.

    The interning invariant — **one live canonical object per signature** —
    turns env writes into pointer comparisons, per-instance derived caches
    (``used_axes``, ``tile_dim_of``) into globally amortized ones, and the
    streaming evaluator's plan-memo keys into tuples of small ints
    (:attr:`Sharding.iid`).  Idempotent; safe under concurrent readers.
    """
    if hasattr(sharding, "_iid"):
        return sharding  # already the canonical instance (never pickled)
    signature = sharding.signature()
    cached = _INTERN.get(signature)
    if cached is not None:
        return cached
    with _INTERN_LOCK:
        cached = _INTERN.get(signature)
        if cached is None:
            # Derived attributes first: lock-free readers must never see
            # a published canonical instance without them.
            sharding._make_canonical(len(_INTERN))
            _INTERN[signature] = cached = sharding
    return cached


@dataclasses.dataclass(frozen=True)
class Sharding:
    """Sharding of one value (see module docstring)."""

    dim_axes: Tuple[Tuple[str, ...], ...]
    sum_axes: FrozenSet[str] = frozenset()
    pinned: FrozenSet[str] = frozenset()

    # Derived data lives in instance attributes outside the dataclass
    # fields (so it is neither compared, hashed nor pickled).  A canonical
    # interned instance carries all of it from the moment it is published
    # — ``used`` (:meth:`used_axes`), ``tile_dims`` (``axis -> tiled dim``,
    # :meth:`tile_dim_of`), ``portable`` (:meth:`to_portable`) and
    # ``portable_repr`` (its ``repr``: what footprint digests hash) — so
    # hot readers that only ever see canonical instances (everything
    # stored in a ShardingEnv is one) read the attributes directly.  Any
    # other instance has none of them until a method fills one in.

    @staticmethod
    def replicated(rank: int) -> "Sharding":
        # Interned: fully-replicated shardings are requested for every value
        # an env has never seen, so sharing one immutable instance per rank
        # keeps the default path allocation-free.
        cached = _REPLICATED.get(rank)
        if cached is None:
            cached = _REPLICATED[rank] = intern_sharding(
                Sharding(tuple(() for _ in range(rank)))
            )
        return cached

    def interned(self) -> "Sharding":
        """Canonical shared instance (see :func:`intern_sharding`)."""
        return intern_sharding(self)

    def _make_canonical(self, iid: int) -> None:
        self.used_axes()  # fills ``used`` ...
        self.tile_dim_of("")  # ... and ``tile_dims``
        portable = self.to_portable()
        object.__setattr__(self, "portable", portable)
        object.__setattr__(self, "portable_repr", repr(portable))
        object.__setattr__(self, "_derive_memo", {})
        object.__setattr__(self, "_iid", iid)

    @property
    def iid(self) -> int:
        """Small-int identity of the canonical instance for this signature.

        Stable for the lifetime of the process (but *process-local*: cross-
        process keys use :meth:`signature`/:meth:`to_portable`, which are
        equal exactly when iids are).  The streaming evaluator keys its
        per-op segment memos on tuples of iids instead of nested signature
        tuples — hashing a few ints instead of re-hashing axis strings.
        """
        try:
            return self._iid
        except AttributeError:
            return intern_sharding(self)._iid

    def __getstate__(self):
        # Derived caches (_iid, _signature, used, tile_dims, ...) are
        # process-local; shipping them would let a stale _iid masquerade as
        # interned in the receiving process.  Pickle only the defining
        # fields.
        return (self.dim_axes, self.sum_axes, self.pinned)

    def __setstate__(self, state):
        object.__setattr__(self, "dim_axes", state[0])
        object.__setattr__(self, "sum_axes", state[1])
        object.__setattr__(self, "pinned", state[2])

    def signature(self) -> Tuple:
        """Cached hashable signature.

        Equal shardings have equal signatures (frozensets are canonicalized
        by sorting), and the tuple hashes much faster than the dataclass's
        generated ``__hash__`` over frozensets — it keys the intern table
        (:func:`intern_sharding`); the streaming estimator keys on iids.
        """
        sig = getattr(self, "_signature", None)
        if sig is None:
            sig = (
                self.dim_axes,
                tuple(sorted(self.sum_axes)),
                tuple(sorted(self.pinned)),
            )
            object.__setattr__(self, "_signature", sig)
        return sig

    @property
    def rank(self) -> int:
        return len(self.dim_axes)

    def tiled_axes(self) -> FrozenSet[str]:
        cached = getattr(self, "_tiled", None)
        if cached is None:
            cached = frozenset(a for axes in self.dim_axes for a in axes)
            object.__setattr__(self, "_tiled", cached)
        return cached

    def used_axes(self) -> FrozenSet[str]:
        """Axes this value's loop nest already involves (tile or sum).

        Cached per instance (:attr:`used`): interning means one instance
        per signature, so it is computed once per *distinct* sharding
        process-wide.
        """
        try:
            return self.used
        except AttributeError:
            used = self.tiled_axes() | self.sum_axes
            object.__setattr__(self, "used", used)
            return used

    def tile_dim_of(self, axis: str) -> Optional[int]:
        try:
            return self.tile_dims.get(axis)
        except AttributeError:
            tile_dims = {
                a: dim for dim, axes in enumerate(self.dim_axes)
                for a in axes
            }
            object.__setattr__(self, "tile_dims", tile_dims)
            return tile_dims.get(axis)

    def uses(self, axis: str) -> bool:
        return axis in self.used_axes()

    def is_pinned(self, axis: str) -> bool:
        return axis in self.pinned

    def _derive(self, key, axis: str, **changes) -> "Sharding":
        """The interned result of one ``with_tile``/``with_sum`` step,
        remembered on canonical instances: each distinct transition is
        computed (and checked) once process-wide."""
        if self.uses(axis):
            raise ShardingError(
                f"axis {axis!r} already used by this value's loop nest"
            )
        result = intern_sharding(dataclasses.replace(self, **changes))
        memo = getattr(self, "_derive_memo", None)
        if memo is not None:
            memo[key] = result
        return result

    def with_tile(self, dim: int, axis: str) -> "Sharding":
        try:
            return self._derive_memo[dim, axis]
        except (AttributeError, KeyError):
            pass
        new_dims = list(self.dim_axes)
        new_dims[dim] = new_dims[dim] + (axis,)
        return self._derive((dim, axis), axis, dim_axes=tuple(new_dims))

    def with_sum(self, axis: str) -> "Sharding":
        try:
            return self._derive_memo[axis]
        except (AttributeError, KeyError):
            pass
        return self._derive(axis, axis, sum_axes=self.sum_axes | {axis})

    def without_sum(self, axes: FrozenSet[str]) -> "Sharding":
        return dataclasses.replace(self, sum_axes=self.sum_axes - axes)

    def with_pin(self, axis: str) -> "Sharding":
        return dataclasses.replace(self, pinned=self.pinned | {axis})

    def to_portable(self) -> Tuple:
        """Process-independent encoding (plain nested tuples of str/int).

        Used for worker transport in the parallel search and as the
        canonical form hashed into persistent-cache fingerprints.  Equal
        shardings have equal portable forms (sets are sorted)."""
        try:
            return self.portable
        except AttributeError:
            return (
                tuple(tuple(axes) for axes in self.dim_axes),
                tuple(sorted(self.sum_axes)),
                tuple(sorted(self.pinned)),
            )

    @staticmethod
    def from_portable(portable: Tuple) -> "Sharding":
        dim_axes, sum_axes, pinned = portable
        return intern_sharding(Sharding(
            tuple(tuple(axes) for axes in dim_axes),
            frozenset(sum_axes),
            frozenset(pinned),
        ))

    def local_shape(self, shape: Tuple[int, ...], mesh: Mesh) -> Tuple[int, ...]:
        """Device-local shape of a value with this sharding."""
        out = []
        for size, axes in zip(shape, self.dim_axes):
            denom = mesh.group_size(axes)
            if size % denom:
                raise ShardingError(
                    f"dim of size {size} not divisible by axes {axes}"
                )
            out.append(size // denom)
        return tuple(out)

    def is_fully_replicated(self) -> bool:
        return not self.tiled_axes() and not self.sum_axes

    def spec(self) -> str:
        """Human-readable spec, e.g. ``[{B}, {}] sum{M}``."""
        dims = ", ".join("{" + ",".join(axes) + "}" for axes in self.dim_axes)
        out = f"[{dims}]"
        if self.sum_axes:
            out += " sum{" + ",".join(sorted(self.sum_axes)) + "}"
        if self.pinned:
            out += " pin{" + ",".join(sorted(self.pinned)) + "}"
        return out


class Event:
    """A propagation event, for the per-tactic debug metadata.

    ``detail`` is rendered on first read: the write path hands over a
    ``(format, *args)`` payload (``("dim {} of {!r}", dim, value)``) and
    never formats it — a probe records hundreds of events and rolls them
    back unread.  Everything a payload references (values, ops, opcodes)
    is immutable, so rendering late gives the string rendering early would
    have.
    """

    __slots__ = ("kind", "op", "axis", "_detail")

    def __init__(self, kind: str, op: Optional[object], axis: str,
                 detail=""):
        self.kind = kind  # "tile" | "sum" | "conflict" | "blocked" | "pin"
        self.op = op
        self.axis = axis
        self._detail = detail

    @property
    def detail(self) -> str:
        detail = self._detail
        if isinstance(detail, tuple):
            detail = self._detail = detail[0].format(*detail[1:])
        return detail

    def __repr__(self) -> str:
        return (f"Event(kind={self.kind!r}, op={self.op!r}, "
                f"axis={self.axis!r}, detail={self.detail!r})")


@dataclasses.dataclass
class PropagationStats:
    """Observability counters for the propagation engine.

    The stats object is *shared* between an env and its :meth:`ShardingEnv.copy`
    clones, so a pipeline that copies envs (e.g. the search's evaluation
    root) accumulates one global tally.  Counters never feed back into
    propagation decisions.
    """

    propagate_calls: int = 0
    ops_processed: int = 0
    rounds: int = 0

    def snapshot(self) -> Tuple[int, int, int]:
        return (self.propagate_calls, self.ops_processed, self.rounds)


@dataclasses.dataclass
class EnvCheckpoint:
    """A point-in-time mark on one env's undo log (see
    :meth:`ShardingEnv.checkpoint`).  Tokens are LIFO: rolling back to one
    invalidates it and every token taken after it."""

    env: "ShardingEnv"
    stack_index: int
    undo_length: int
    events_length: int
    dirty: FrozenSet[Value]


class ShardingEnv:
    """Sharding assignment for every value of a function (and its regions).

    The env also tracks *dirty* values — values whose sharding changed since
    the last ``propagate`` fixed point — which seed propagation's worklist
    (:mod:`repro.core.propagate` drains the set).

    Storage is one flat dict of the non-default shardings (an absent value
    is replicated): a lookup is a single probe and :meth:`copy` is one
    ``dict.copy()``.  The search copies an env once (the evaluator's root)
    and moves it with :meth:`checkpoint`/:meth:`rollback` from there on.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        #: Every sharding ever written (absent = replicated).
        self._shardings: Dict[Value, Sharding] = {}
        self.events: List[Event] = []
        #: False on a search clone (``copy(with_events=False)``):
        #: :meth:`record` then keeps nothing.
        self.keeps_events = True
        self._dirty: Set[Value] = set()
        self.stats = PropagationStats()
        #: Undo log: ``(value, previous sharding)`` per effective write,
        #: recorded only while at least one checkpoint is outstanding.
        self._undo: List[Tuple[Value, Sharding]] = []
        self._checkpoints: List[EnvCheckpoint] = []
        #: Strictly monotone write counter: every sharding change ever
        #: applied — including the restoring writes a rollback performs —
        #: so consumers can tell "the env is back in a state I saw" apart
        #: from "nothing happened".  Propagation's per-visit change test
        #: and ``partir_jit``'s snapshot check read it.
        self._write_serial: int = 0

    def sharding(self, value: Value) -> Sharding:
        existing = self._shardings.get(value)
        if existing is not None:
            return existing
        return Sharding.replicated(len(value.type.shape))

    def set_sharding(self, value: Value, sharding: Sharding) -> None:
        # Axis order within a dim is insertion order (outer-to-inner), i.e.
        # the paper's deep-tiling nesting order: the first tactic to tile a
        # dim owns the outermost loop. Producers and consumers agree because
        # propagation derives both sides' orders from the same factor.
        if len(sharding.dim_axes) != len(value.type.shape):
            raise ShardingError(
                f"sharding rank {sharding.rank} != value rank "
                f"{len(value.type.shape)}"
            )
        # Every stored sharding is the canonical interned instance, so the
        # no-change test is a pointer comparison (writes of an equal-but-
        # distinct object intern to the same instance first).
        if not hasattr(sharding, "_iid"):
            sharding = intern_sharding(sharding)
        previous = self.sharding(value)
        if previous is sharding:
            return
        if self._checkpoints:
            self._undo.append((value, previous))
        self._shardings[value] = sharding
        self._write_serial += 1
        self._dirty.add(value)

    # -- undo log -----------------------------------------------------------

    def checkpoint(self) -> "EnvCheckpoint":
        """Mark the current state; returns a token for :meth:`rollback`.

        Checkpoints nest (LIFO): rolling back to an outer token unwinds
        everything after it, including un-rolled-back inner checkpoints.
        Recording costs O(1) per checkpoint plus one ``(value, previous)``
        log entry per effective write while any checkpoint is outstanding —
        the zero-copy alternative to :meth:`copy`.  All mutation
        paths (``Tactic.apply``, ``propagate``, the raw actions) funnel
        through :meth:`set_sharding`, so they append to the active log
        transparently.
        """
        token = EnvCheckpoint(
            env=self,
            stack_index=len(self._checkpoints),
            undo_length=len(self._undo),
            events_length=len(self.events),
            dirty=frozenset(self._dirty),
        )
        self._checkpoints.append(token)
        return token

    def rollback(self, token: "EnvCheckpoint") -> None:
        """Restore the exact state :meth:`checkpoint` captured in ``token``.

        Bit-identical restoration in O(writes since the checkpoint):
        shardings (via the undo log, newest first), the dirty set and the
        event-log length all return to their recorded values.  The token
        (and any checkpoint taken after it) is consumed.
        """
        del self._checkpoints[self._live_index(token):]
        undo = self._undo
        shardings = self._shardings
        restored = undo[token.undo_length:]
        restored.reverse()  # newest first
        for value, previous in restored:
            shardings[value] = previous
        self._write_serial += len(restored)
        del undo[token.undo_length:]
        if not self._checkpoints:
            self._undo = []
        del self.events[token.events_length:]
        self._dirty = set(token.dirty)

    def _live_index(self, token: "EnvCheckpoint") -> int:
        """``token``'s position on the checkpoint stack; raises for a
        foreign or already-consumed token."""
        if token.env is not self:
            raise ShardingError("checkpoint token belongs to another env")
        stack = self._checkpoints
        if (token.stack_index >= len(stack)
                or stack[token.stack_index] is not token):
            raise ShardingError("stale checkpoint token: already rolled back")
        return token.stack_index

    @property
    def checkpoint_depth(self) -> int:
        return len(self._checkpoints)

    def writes_since(self, token: "EnvCheckpoint") -> List[
            Tuple[Value, Sharding]]:
        """``(value, current sharding)`` for every value written since
        ``token`` (deduped, first-write order; the token stays live).

        This is the replayable *forward* delta of everything between the
        checkpoint and now: re-applying the pairs to an env in the token's
        state reproduces the current shardings exactly — the undo-log
        rollout evaluator memoizes one such delta per search prefix so
        re-extending a previously-propagated prefix skips the propagation
        fixed point entirely.

        Raises the same stale-token error as :meth:`rollback` when
        ``token`` has already been rolled back: its recorded
        ``undo_length`` then indexes a log epoch that no longer exists, and
        slicing from it would silently return writes belonging to other
        checkpoints (or nothing at all) instead of the token's true delta.
        """
        self._live_index(token)
        # Every logged value was written, so it has an entry.
        shardings = self._shardings
        return [
            (value, shardings[value])
            for value in dict.fromkeys(
                value for value, _ in self._undo[token.undo_length:])
        ]

    @property
    def write_serial(self) -> int:
        """The strictly monotone write counter (rollbacks count as writes)."""
        return self._write_serial

    def drain_dirty(self) -> Set[Value]:
        """Return the values written since the last drain and reset the
        set — no copy, for hot loops."""
        drained, self._dirty = self._dirty, set()
        return drained

    def copy(self, with_events: bool = True) -> "ShardingEnv":
        """An independent clone: later writes on either side are invisible
        to the other.

        The shardings are snapshotted with one ``dict.copy()`` — atomic
        under the GIL, so another thread may copy an env that is being
        written and still see a consistent map.  ``with_events=False``
        gives a clone that keeps no event log at all — neither the
        caller's history nor its own events (:meth:`record` does
        nothing; checkpoints and rollbacks work as before) — for the
        search's evaluation env, which never reads events.

        Clones never inherit undo state: outstanding checkpoints and the
        undo log stay with ``self`` (a clone starts with neither), so
        copying between a checkpoint and its rollback changes nothing."""
        clone = ShardingEnv(self.mesh)
        clone._shardings = self._shardings.copy()
        if with_events:
            clone.events = list(self.events)
        else:
            clone.keeps_events = False
        clone._dirty = set(self._dirty)
        clone.stats = self.stats  # shared tally (see PropagationStats)
        return clone

    def portable_state(self, function) -> Tuple[Tuple[int, Tuple], ...]:
        """Non-replicated shardings as ``(value index, portable sharding)``.

        Indices are positions in ``function.index.values`` (the canonical
        structural order of :class:`repro.ir.function.FunctionIndex`), so
        the state can be shipped to another process (the parallel
        search's workers, a plan server) without referencing any live
        :class:`Value` objects."""
        items = []
        for index, value in enumerate(function.index.values):
            sharding = self.sharding(value)
            if not sharding.is_fully_replicated() or sharding.pinned:
                items.append((index, sharding.to_portable()))
        return tuple(items)

    def apply_portable_state(
        self, function, state: Tuple[Tuple[int, Tuple], ...]
    ) -> None:
        """Inverse of :meth:`portable_state` against a structurally-identical
        function (values resolved by canonical index)."""
        values = function.index.values
        for index, portable in state:
            self.set_sharding(values[index], Sharding.from_portable(portable))

    def record(self, kind: str, op, axis: str, detail="") -> None:
        """Append an event, unless the env keeps none; ``detail`` is a
        string or a lazy ``(format, *args)`` payload (see :class:`Event`)."""
        if self.keeps_events:
            self.events.append(Event(kind, op, axis, detail))

    def conflicts(self) -> List[Event]:
        return [e for e in self.events if e.kind == "conflict"]
