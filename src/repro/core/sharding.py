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

* **One instance per signature**: ``Sharding(...)`` returns the one
  immutable instance for its fields, process-wide (an unpickled one
  included).  Env writes compare by pointer, memo keys hash small ints
  (:attr:`Sharding.iid`), and derived data (``used``, ``taken``,
  ``tile_dims``, ``portable``, ``portable_repr``, the
  ``with_tile``/``with_sum`` transitions) is computed once per *distinct*
  sharding and read afterwards as plain attributes — the propagation
  kernel and the condenser's digest never call a method or format a
  string for it.
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


#: The intern table: the one :class:`Sharding` per signature (its
#: ``portable`` form).  Writes happen under the lock; readers rely on the
#: GIL's atomic dict reads (an entry, once published, never changes), so
#: lookups on the hot path stay lock-free — the concurrency tests hammer
#: this.
_INTERN: Dict[Tuple, "Sharding"] = {}
_INTERN_LOCK = threading.Lock()
_REPLICATED: Dict[int, "Sharding"] = {}


class Sharding:
    """Sharding of one value (see module docstring).

    The constructor returns the one instance for its signature, so equal
    shardings are the same object — also across a pickle round trip:

    >>> import pickle
    >>> s = Sharding((("batch",), ()))
    >>> s is Sharding([["batch"], []])
    True
    >>> pickle.loads(pickle.dumps(s)) is s
    True
    >>> s.with_sum("model").spec()
    '[{batch}, {}] sum{model}'

    Everything derived is computed once, when a signature is first seen,
    and read as a plain attribute afterwards: ``iid`` (a small int,
    process-local), ``used`` (tiled and summed axes), ``taken`` (``used``
    and the pins: the axes the nest can no longer take), ``tile_dims``
    (``axis -> tiled dim``), ``portable`` (plain nested tuples, the
    process-independent form) and ``portable_repr`` (its ``repr``, what
    footprint digests hash).
    """

    __slots__ = ("dim_axes", "sum_axes", "pinned", "iid", "used", "taken",
                 "tile_dims", "portable", "portable_repr", "_transitions")

    def __new__(cls, dim_axes, sum_axes=(), pinned=()):
        dim_axes = tuple(map(tuple, dim_axes))
        portable = (dim_axes, tuple(sorted(sum_axes)), tuple(sorted(pinned)))
        self = _INTERN.get(portable)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _INTERN.get(portable)
            if self is None:
                self = object.__new__(cls)
                sums, pins = frozenset(portable[1]), frozenset(portable[2])
                used = sums.union(*dim_axes)
                for name, value in (
                        ("dim_axes", dim_axes), ("sum_axes", sums),
                        ("pinned", pins), ("iid", len(_INTERN)),
                        ("used", used), ("taken", used | pins),
                        ("tile_dims", {a: dim for dim, axes
                                       in enumerate(dim_axes) for a in axes}),
                        ("portable", portable),
                        ("portable_repr", repr(portable)),
                        ("_transitions", {})):
                    object.__setattr__(self, name, value)
                # Published complete: lock-free readers never see a
                # half-built instance.
                _INTERN[portable] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a Sharding is immutable")

    def __reduce__(self):
        # The receiver rebuilds through the constructor, so an unpickled
        # sharding is the receiver's canonical instance.
        return Sharding, self.portable

    def __repr__(self) -> str:
        return f"Sharding({self.spec()})"

    @staticmethod
    def replicated(rank: int) -> "Sharding":
        # Requested for every value an env has never seen: one dict probe.
        cached = _REPLICATED.get(rank)
        if cached is None:
            cached = _REPLICATED[rank] = Sharding(((),) * rank)
        return cached

    @property
    def rank(self) -> int:
        return len(self.dim_axes)

    def tile_dim_of(self, axis: str) -> Optional[int]:
        return self.tile_dims.get(axis)

    def is_pinned(self, axis: str) -> bool:
        return axis in self.pinned

    def tile_refusal(self, dim: int, axis: str, size: int,
                     mesh: Mesh) -> Optional[str]:
        """The tiling rule: why ``dim`` (of ``size`` elements) of a value
        with this sharding may not take ``axis`` — ``"taken"`` (the nest
        already tiles or sums over it), ``"pinned"`` or ``"indivisible"``
        — or None when it may."""
        if axis in self.taken:
            return "taken" if axis in self.used else "pinned"
        if size % (mesh.group_size(self.dim_axes[dim]) * mesh.size(axis)):
            return "indivisible"
        return None

    def _step(self, key, axis: str, dim_axes, sum_axes) -> "Sharding":
        """One ``with_tile``/``with_sum`` transition, checked and then
        remembered: each distinct one is computed once process-wide."""
        if axis in self.used:
            raise ShardingError(
                f"axis {axis!r} already used by this value's loop nest"
            )
        result = self._transitions[key] = Sharding(dim_axes, sum_axes,
                                                   self.pinned)
        return result

    def with_tile(self, dim: int, axis: str) -> "Sharding":
        result = self._transitions.get((dim, axis))
        if result is None:
            dims = list(self.dim_axes)
            dims[dim] += (axis,)
            result = self._step((dim, axis), axis, dims, self.sum_axes)
        return result

    def with_sum(self, axis: str) -> "Sharding":
        result = self._transitions.get(axis)
        if result is None:
            result = self._step(axis, axis, self.dim_axes,
                                self.sum_axes | {axis})
        return result

    def without_sum(self, axes: FrozenSet[str]) -> "Sharding":
        return Sharding(self.dim_axes, self.sum_axes - axes, self.pinned)

    def with_pin(self, axis: str) -> "Sharding":
        return Sharding(self.dim_axes, self.sum_axes, self.pinned | {axis})

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
        return not self.used

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
    #: Visits (of ``ops_processed``) that replayed a memoized outcome
    #: instead of deciding it (:mod:`repro.core.propagate`).
    visits_replayed: int = 0

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
        the zero-copy alternative to :meth:`copy`.  Every mutation path
        (``Tactic.apply``, the raw actions) funnels through
        :meth:`set_sharding`, except propagation's replay of a memoized
        visit (``Propagator._replay``), which writes each changed value
        once and logs ``(value, sharding before the visit)`` the same
        way, so they append to the active log transparently.
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
        state reproduces the current shardings exactly — the search's
        evaluator keeps one such delta per action applied at its root
        (the condenser hashes it as the action's probe), so extending the
        root by that action again skips the propagation fixed point.

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
                items.append((index, sharding.portable))
        return tuple(items)

    def apply_portable_state(
        self, function, state: Tuple[Tuple[int, Tuple], ...]
    ) -> None:
        """Inverse of :meth:`portable_state` against a structurally-identical
        function (values resolved by canonical index)."""
        values = function.index.values
        for index, portable in state:
            self.set_sharding(values[index], Sharding(*portable))

    def record(self, kind: str, op, axis: str, detail="") -> None:
        """Append an event, unless the env keeps none; ``detail`` is a
        string or a lazy ``(format, *args)`` payload (see :class:`Event`)."""
        if self.keeps_events:
            self.events.append(Event(kind, op, axis, detail))

    def conflicts(self) -> List[Event]:
        return [e for e in self.events if e.kind == "conflict"]
