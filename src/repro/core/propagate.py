"""The PartIR propagation pass (Section 5.2.2).

Propagation greedily extends known tiling information through the module
using the factor rules (the TMR), without cost models or heuristics:

* **Forward**: an operand tiled on a factor's position is evidence for that
  factor; applying the factor tiles the op's other positions (result and,
  for contracting factors, the sibling operand — the paper's *inference*).
* **Backward**: a result tiled/sliced downstream is evidence the same way.
* **Conflicts**: if evidence points at two *extendable* factors for the same
  axis, propagation does nothing and records the conflict (Section 5.2.3);
  ordering tactics resolves it, because an axis already used by a value's
  loop nest can never be re-introduced (first writer wins).
* **Pending sums**: a contracting factor marks results as carrying a pending
  ``#sum`` over the axis; linear ops defer the reduction (gradient
  accumulation), anything else forces an ``all_reduce`` at lowering.

The pass runs to a fixed point; it is monotone (axes are only ever added to
shardings), so it terminates.

**The worklist.**  An op's transfer function reads only the shardings of
its *adjacent* values: its operands, its results, and — for loop ops
(``scan``/``fori_loop``/``while_loop``) — the linked body (and predicate)
params/results of its carries.  Therefore an op can fire (tile, defer a
pending sum, or report a conflict it has not yet reported) only after one
of those values changed.  Propagation is built on exactly that: the
worklist is seeded from the env's *dirty* values (every value written
since the previous fixed point — a tactic's actions), and whenever a
value's sharding changes, every op adjacent to it is re-enqueued.  Within
a round, ops run in program (pre-order walk) order with changes visible
immediately; an adjacent op at a *later* index joins the current round,
one at an earlier index is deferred to the next round.  The op that just
wrote is adjacent to its own writes; it is deferred too unless its visit
was *settled* — a second visit with nothing changed in between would
write and record nothing — and the schedule drops only those provably
no-op self-revisits.  The schedule is therefore a subsequence of the
classic whole-function sweep restricted to ops that could fire: within
one call the fixed point — shardings *and* recorded events, which are
deduped per call — is the sweep's.  Across a chain of tactics the
shardings and the *set* of distinct conflicts agree with re-sweeping
after every tactic; a re-sweep would only re-report a conflict persisting
from an earlier tactic.  A whole-function sweep is the special case
where every value is dirty; ``tests/oracle.py::full_sweep`` builds it
that way, and ``tests/test_chains.py`` checks the equivalence along
mixed trajectories.

**The settled rule.**  A visit that wrote is settled unless (a) the op is
a loop op (``_process_loop`` is not idempotent when one value sits in two
carry groups), (b) one value sits at two of the op's adjacent positions
(a write through one position is new evidence at the other), (c)
``_match_axis`` found two or more extendable factors on some axis (a
write on another axis can make all but one of them indivisible, and a
revisit would then apply that one), or (d) ``_extendable`` rejected a
factor at its reduce check, which reports nothing (a revisit may then
hit, and report, a ``blocked`` entry the write created).  Otherwise a
revisit is a no-op: evidence and pending sums are read up front and a
write adds neither (it tiles positions of the factor just applied, which
already had evidence, and sums only results); extendability can only
fall, since every blocking test is monotone and an applied factor is
fully applied; a factor rejected at an entry already reported
``blocked`` for its ``(op, axis)``; and deferral is guarded by ``taken``,
which the deferred sum joins.  ``tests/test_settled_revisits.py`` checks
the schedule against ``tests/oracle.py::RevisitingPropagator``, which
always re-enqueues.

**One compiled kernel, one memo.**  Every visit runs the same per-op
transfer function (:meth:`Propagator._decide`) over shared records: each
op's :class:`repro.core.opclass.OpClass`, whose rule is the op's
compiled factor table (an empty one for a fully blocked op), and the
function's :class:`_FunctionIndex`.  So a visit indexes tuples and reads
sharding attributes instead of calling into the rule registry.  A
non-loop visit's outcome — the shardings it writes, the events it
records and whether it settled, by adjacent position — depends only on
the op's structural *class* (:func:`op_class`:
opcode, attrs and types), on which adjacent positions hold the same
value (the index's ``aliases``: ``x * x`` writes one value where ``x *
y`` writes two) and on the adjacent values' shardings.  So it is
decided once per ``(head, adjacent shardings)`` — the head is the class,
or ``(class, aliases)`` for the few ops with a repeated value — and
replayed afterwards
(:meth:`Propagator._replay`, the one write path, which a fresh decision
goes through too): identical ops in different layers, and the same op
in different probes of the search's condenser, share one entry.  The
memo lives in the function's propagation view, one per (propagator
class, mesh) — the class because a subclass may change the conflict
policy, the mesh because divisibility reads axis sizes — so it dies
with the function, is never pickled and is rebuilt when the function
grows.  Loop ops are never memoized.  Two identical ``tanh(x @ w)``
layers: layer 2's visits replay layer 1's decisions, with layer 2's
values in the events::

    >>> from repro import Mesh, ShapeDtype, trace
    >>> from repro.trace import ops
    >>> spec = ShapeDtype((8, 8))
    >>> function = trace(lambda x, w1, w2: ops.tanh(ops.tanh(x @ w1) @ w2),
    ...                  spec, spec, spec, tag_points=False).function
    >>> env = ShardingEnv(Mesh({"batch": 2}))
    >>> x = function.params[0]
    >>> env.set_sharding(x, env.sharding(x).with_tile(0, "batch"))
    >>> propagate(function, env)
    >>> env.stats.ops_processed, env.stats.visits_replayed
    (4, 2)
    >>> dot = function.index.ops[2]  # layer 2's matmul
    >>> [e.detail for e in env.events if e.op is dot] == [
    ...     f"dim 0 of {dot.results[0]!r}"]
    True

Comparing against a sweep cannot catch a kernel bug;
``tests/test_propagation_golden.py`` pins fixed points and event lists to
values generated before the kernel was compiled (and visit counts to the
settled rule's), and ``tests/oracle.py::RevisitingSchedule`` decides
every visit afresh.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import Operation, Value
from repro.core.opclass import OpClass, op_class
from repro.core.sharding import Sharding, ShardingEnv

# Single-operand (or all-operand) linear ops always defer.
_ALWAYS_DEFER = {
    "neg", "transpose", "reshape", "broadcast_in_dim", "reduce_sum",
    "slice", "pad", "convert", "stop_gradient", "tag", "upsample2d",
    "downsample2d_sum", "dynamic_slice_in_dim",
}


def may_defer(op: Operation, axis: str, pending: List[int]) -> bool:
    """May a pending #sum over ``axis`` on the ``pending`` operands be
    deferred through ``op``?

    Deferral is restricted to ops where *every* float operand is pending
    (gradient-accumulation adds, structural ops).  One-sided linear deferral
    (e.g. scaling a partial sum) would be sound too, but materialising at the
    first non-accumulating use is what produces the paper's one
    reduction-per-gradient collective counts, so we follow that.
    """
    opcode = op.opcode
    n = len(op.operands)
    if opcode in _ALWAYS_DEFER and len(pending) == n:
        return True
    if opcode in ("add", "sub", "concatenate"):
        return len(pending) == n
    if opcode == "select":
        return pending == [1, 2]
    return False


class _Outcome:
    """What one visit did, by adjacent position, so that any visit with
    the same class and the same adjacent shardings can replay it.

    ``writes``: ``(k, new sharding, starting sharding)`` per written
    value, in first-write order.  ``events``: ``(kind, axis, payload,
    at)`` in recording order, where ``at`` is the position whose value
    ends a ``tile`` payload (None for the other kinds).  ``settled``:
    may the visited op skip its own revisit (module docstring)?
    """

    __slots__ = ("writes", "events", "settled")

    def __init__(self, writes: tuple, events: tuple, settled: bool):
        self.writes = writes
        self.events = events
        self.settled = settled


#: The outcome of a visit that writes and records nothing.
_NOTHING = _Outcome((), (), True)

#: Event kinds recorded once per ``(op, axis)`` per run.
_REPORTS = frozenset({"conflict", "blocked"})


class _FunctionIndex:
    """Per-op classes, value patterns and memo heads (parallel to
    ``function.index.ops``, the worklist's numbering), value->op
    adjacency and the visit memos for one function: a view of it
    (:meth:`Function.derived`), so it is rebuilt when the function grows
    and never pickled."""

    __slots__ = ("ops", "values", "classes", "aliases", "heads",
                 "adjacency", "memos")

    def __init__(self, function: Function):
        self.ops: List[Operation] = function.index.ops
        #: Parallel to ``ops``: the adjacent values (operands, then
        #: results); the op's class (None for a loop op, which
        #: ``_process_loop`` visits); per adjacent position the positions
        #: holding the same value (None when all values are distinct);
        #: and the head of the op's memo keys, the class or ``(class,
        #: aliases)`` for an op with a repeated value.
        self.values: List[Tuple[Value, ...]] = [
            (*op.operands, *op.results) for op in self.ops]
        self.classes: List[Optional[OpClass]] = [
            None if op.opcode in opdefs.LOOP_OPS else op_class(op)
            for op in self.ops]
        self.aliases: List[Optional[tuple]] = [None] * len(self.ops)
        self.heads: list = list(self.classes)
        #: ``adjacency[value]``: the ascending walk indices of the ops
        #: whose transfer reads the value's sharding (lists: a tuple per
        #: value would need one more pass over the table).
        self.adjacency: Dict[Value, List[int]] = {}
        adjacency, classes = self.adjacency, self.classes
        get = adjacency.get
        for index, values in enumerate(self.values):
            cls = classes[index]
            if cls is None:
                # _process_loop also reads the body's params and results
                # (and, for while_loop, the predicate's carry params).
                op = self.ops[index]
                body = op.regions[0]
                values = (*values, *body.params, *body.results)
                if op.opcode == "while_loop":
                    values += tuple(op.regions[1].params)
            for value in values:
                indices = get(value)
                if indices is None:
                    adjacency[value] = [index]
                elif indices[-1] != index:
                    indices.append(index)
                elif cls is not None:  # a value at two positions
                    aliases = tuple(
                        tuple(j for j, w in enumerate(values) if w is v)
                        for v in values)
                    self.aliases[index] = aliases
                    self.heads[index] = (cls, aliases)
        #: ``(propagator class, mesh) -> {(memo head, *adjacent env
        #: entries): outcome}``.  The class is part of the scope
        #: because a subclass may change the conflict policy; the mesh
        #: because divisibility reads axis sizes (and axes are visited in
        #: mesh order).
        self.memos: Dict[tuple, Dict[tuple, _Outcome]] = {}

    def memo(self, propagator_class: type, mesh) -> Dict[tuple, _Outcome]:
        return self.memos.setdefault((propagator_class, mesh), {})


def _function_index(function: Function) -> _FunctionIndex:
    """Propagation's view of ``function``."""
    return function.derived("propagate", _FunctionIndex)


class Propagator:
    """Runs tiling/pending propagation over one function (and regions).

    A visit is decided (:meth:`_decide`) without touching the env or any
    rule object: it reads the adjacent values' shardings as attributes
    (an absent env entry is the rule's replicated default), finds the
    factor a tiled dim belongs to by indexing the rule's ``dim -> factor
    id`` tuples, and returns an :class:`_Outcome`.  The
    outcome is then applied by :meth:`_replay`, the one write path.
    Events carry unformatted payloads (:class:`repro.core.sharding.Event`).
    """

    def __init__(self, function: Function, env: ShardingEnv):
        self.function = function
        self.env = env
        self.mesh = env.mesh
        self._axis_names = env.mesh.axis_names
        self._reported: Set[Tuple[int, str, str]] = set()
        self._index = _function_index(function)
        self._memo = self._index.memo(type(self), env.mesh)
        # Scratch of the visit being decided (see :meth:`_decide`).
        self._events: List[tuple] = []
        self._settled = True

    # -- public -----------------------------------------------------------

    def run(self, max_sweeps: int = 200) -> None:
        """Run to a fixed point, seeded with the ops adjacent to the env's
        dirty values (sound: an op whose neighborhood has not changed since
        the last fixed point cannot fire — see the module docstring).  The
        dirty set is drained here and then per visit, so it is empty on
        return."""
        self.env.stats.propagate_calls += 1
        adjacency = self._index.adjacency
        seeds: Set[int] = set()
        for value in self.env.drain_dirty():
            seeds.update(adjacency.get(value, ()))
        self._fixed_point(seeds, max_rounds=max_sweeps)

    # -- worklist engine ----------------------------------------------------

    def _fixed_point(self, seeds: Set[int], max_rounds: int) -> None:
        ops = self._index.ops
        classes = self._index.classes
        aliases = self._index.aliases
        heads = self._index.heads
        adjacent = self._index.values
        adjacency = self._index.adjacency
        memo = self._memo
        env = self.env
        get = env._shardings.get
        stats = env.stats
        decide, replay = self._decide, self._replay
        heappop, heappush = heapq.heappop, heapq.heappush
        # An ascending sorted list already satisfies the min-heap invariant,
        # so heappush/heappop work on it directly — no heapify needed.
        current = sorted(seeds)
        in_current = set(current)
        next_round: Set[int] = set()
        for _ in range(max_rounds):
            if not current:
                if not next_round:
                    return
                current = sorted(next_round)
                in_current = set(current)
                next_round = set()
            stats.rounds += 1
            while current:
                i = heappop(current)
                in_current.discard(i)
                stats.ops_processed += 1
                head = heads[i]
                if head is None:  # a loop op
                    before = env._write_serial
                    self._process_loop(ops[i])
                    if env._write_serial == before:
                        continue
                    own = -1
                else:
                    values = adjacent[i]
                    key = (head, *map(get, values))
                    outcome = memo.get(key)
                    if outcome is None:
                        outcome = memo[key] = decide(ops[i], classes[i],
                                                     aliases[i], key)
                    else:
                        stats.visits_replayed += 1
                    if outcome is _NOTHING:
                        continue
                    replay(ops[i], values, outcome)
                    if not outcome.writes:
                        continue
                    own = i if outcome.settled else -1
                # Re-enqueue every op adjacent to a value we just changed:
                # later ops join this round (program order), earlier ones
                # wait for the next round — sweep semantics — and so does
                # this op, unless its visit was settled.
                for value in env.drain_dirty():
                    for j in adjacency.get(value, ()):
                        if j > i:
                            if j not in in_current:
                                heappush(current, j)
                                in_current.add(j)
                        elif j != own:
                            next_round.add(j)
        if not current and not next_round:
            return  # converged in exactly max_rounds rounds
        raise RuntimeError("propagation did not converge")

    # -- the one write path ---------------------------------------------------

    def _replay(self, op: Operation, values: Tuple[Value, ...],
                outcome: _Outcome) -> None:
        """Apply ``outcome`` to ``op``'s adjacent ``values``: what
        :meth:`ShardingEnv.set_sharding` and :meth:`ShardingEnv.record`
        would do for the writes and events of the visit, with one write
        and one undo entry per written value."""
        env = self.env
        shardings = env._shardings
        dirty = env._dirty
        undo = env._undo if env._checkpoints else None
        for k, sharding, start in outcome.writes:
            value = values[k]
            if undo is not None:
                undo.append((value, start))
            shardings[value] = sharding
            dirty.add(value)
        env._write_serial += len(outcome.writes)
        if not env.keeps_events:
            return
        for kind, axis, payload, at in outcome.events:
            if at is not None:
                payload += (values[at],)
            if kind in _REPORTS:
                self._record_once(op, axis, kind, payload)
            else:
                env.record(kind, op, axis, payload)

    def _record_once(self, op: Operation, axis: str, kind: str,
                     payload: tuple) -> None:
        """Record ``kind`` for ``(op, axis)`` once per run."""
        key = (id(op), axis, kind)
        if key not in self._reported:
            self._reported.add(key)
            self.env.record(kind, op, axis, payload)

    def _report_once(self, op: Operation, axis: str, kind: str,
                     *detail) -> None:
        """Report ``kind`` for ``(op, axis)`` from the visit being
        decided: replaying it records the report once per run.
        ``detail`` is a lazy ``(format, *args)`` payload."""
        self._events.append((kind, axis, detail, None))

    # -- the per-op transfer function ------------------------------------------

    def _decide(self, op: Operation, cls: OpClass,
                aliases: Optional[tuple], key: tuple) -> _Outcome:
        """Match, extend and defer on every mesh axis, in mesh-axis order,
        given the adjacent values' env entries ``key[1:]`` and which
        positions hold the same value (``aliases``, as the index keeps
        it); the env is only read, through ``key``.

        Which factors have evidence on an axis (a value tiled on one of
        the factor's positions) and which operands carry a pending sum
        over it are read once, up front: a write made while handling one
        axis only ever adds *that* axis to a sharding, so it cannot change
        either answer for a later axis.  Everything a decision on the
        current axis reads sees every earlier write of the visit.
        """
        start = key[1:]
        if not any(start):  # (a Sharding is always truthy)
            return _NOTHING  # every neighbour replicated
        rule = cls.rule
        dim_factors = rule.dim_factors
        num_operands = rule.num_operands
        shardings = list(start)
        evidence: Dict[str, Set[int]] = {}
        pending: Dict[str, List[int]] = {}
        for k, sharding in enumerate(start):
            if sharding is None:
                shardings[k] = rule.defaults[k]
                continue
            if not sharding.used:
                continue
            row = dim_factors[k]
            for axis, dim in sharding.tile_dims.items():
                fid = row[dim]
                if fid is not None:
                    fids = evidence.get(axis)
                    if fids is None:
                        evidence[axis] = {fid}
                    else:
                        fids.add(fid)
            if k < num_operands and sharding.sum_axes:
                for axis in sharding.sum_axes:
                    pending.setdefault(axis, []).append(k)
        if not evidence and not pending:
            return _NOTHING
        starting = tuple(shardings)
        # Rule (b) of the settled rule; (c) and (d) clear it below.
        self._settled = aliases is None
        self._events = events = []
        written: Dict[int, None] = {}  # first positions, first-write order

        def write(k: int, sharding: Sharding) -> None:
            same = (k,) if aliases is None else aliases[k]
            for j in same:
                shardings[j] = sharding
            written.setdefault(same[0])

        defer = bool(pending) and rule.single_result
        for axis in self._axis_names:
            fids = evidence.get(axis)
            if fids is not None:
                self._match_axis(op, cls, axis, fids, shardings, write)
            if defer and axis in pending:
                self._defer_pending(op, axis, pending[axis], shardings,
                                    write)
        if not written and not events:
            return _NOTHING
        return _Outcome(
            tuple((k, shardings[k], starting[k]) for k in written),
            tuple(events), self._settled)

    def _match_axis(self, op: Operation, cls: OpClass, axis: str,
                    evidence: Set[int], shardings: List[Sharding],
                    write) -> None:
        factors = cls.rule.factors
        extendable = []
        for fid in evidence:
            if self._extendable(op, factors[fid], axis, cls.shapes,
                                shardings):
                extendable.append(fid)
        if not extendable:
            return
        if len(extendable) > 1:
            self._settled = False  # rule (c)
        chosen = self._choose(op, axis, extendable)
        if chosen is not None:
            self._apply_factor(op, factors[chosen], axis, shardings, write)

    def _choose(self, op: Operation, axis: str,
                extendable: List[int]) -> Optional[int]:
        """The conflict policy: which of the (one or more) extendable
        factors with evidence on ``axis`` to apply, or None to leave the
        op alone.  PartIR never guesses (Section 5.2.3): two candidates
        are a conflict, recorded and left for tactic ordering to resolve.
        """
        if len(extendable) > 1:
            self._report_once(
                op, axis, "conflict",
                "{}: factors {} both match on axis {!r}",
                op.opcode, sorted(extendable), axis)
            return None
        return extendable[0]

    def _extendable(self, op: Operation, factor, axis: str, shapes: tuple,
                    shardings: List[Sharding]) -> bool:
        """Would applying ``factor`` on ``axis`` tile or mark something
        new, with nothing in the way?  (False both for a factor already
        fully applied and for a blocked one.)"""
        entries, reduce = factor
        mesh = self.mesh
        missing = False
        for k, dim, is_operand in entries:
            sharding = shardings[k]
            axes = sharding.dim_axes[dim]
            if axis in axes:
                continue
            if is_operand and axis in sharding.sum_axes:
                # A pending operand is reconciled at lowering (AR/RS);
                # it neither blocks nor needs the tile.
                continue
            if axis in sharding.taken:
                self._report_once(
                    op, axis, "blocked",
                    "{}: value already uses axis {!r}", op.opcode, axis)
                return False
            if shapes[k][dim] % (mesh.group_size(axes) * mesh.size(axis)):
                self._report_once(
                    op, axis, "blocked",
                    "{}: dim {} not divisible by axis {!r}",
                    op.opcode, dim, axis)
                return False
            missing = True
        if reduce:
            for sharding in shardings[len(op.operands):]:
                if axis in sharding.sum_axes:
                    continue
                if axis in sharding.taken:
                    self._settled = False  # rule (d): rejected silently
                    return False
                missing = True
        return missing

    def _apply_factor(self, op: Operation, factor, axis: str,
                      shardings: List[Sharding], write) -> None:
        entries, reduce = factor
        events = self._events
        for k, dim, _ in entries:
            # Read per write: one value may sit at two positions.
            sharding = shardings[k]
            if axis in sharding.dim_axes[dim] or axis in sharding.sum_axes:
                continue
            write(k, sharding.with_tile(dim, axis))
            events.append(("tile", axis, ("dim {} of {!r}", dim), k))
        if reduce:
            for k in range(len(op.operands), len(shardings)):
                sharding = shardings[k]
                if axis not in sharding.sum_axes:
                    write(k, sharding.with_sum(axis))
                    events.append(
                        ("sum", axis, ("{} result", op.opcode), None))

    # -- pending-sum deferral -------------------------------------------------

    def _defer_pending(self, op: Operation, axis: str, pending: List[int],
                       shardings: List[Sharding], write) -> None:
        """Pass a pending #sum over ``axis`` on the ``pending`` operands
        through a single-result op that may defer it."""
        result = len(op.operands)
        if axis in shardings[result].taken:
            return
        if not may_defer(op, axis, pending):
            return
        write(result, shardings[result].with_sum(axis))
        self._events.append(
            ("sum", axis, ("deferred through {}", op.opcode), None))

    # -- loops -------------------------------------------------------------------

    def _process_loop(self, op: Operation) -> None:
        """Unify carry shardings through any loop op: operand_i, body param
        i+1, body result i and op result i must agree (the loop state keeps
        one layout across iterations).  ``while_loop``'s predicate reads the
        same carries, so its param i+1 joins carry i's group.  Loop visits
        are not memoized: they read the body's values too."""
        body = op.regions[0]
        cond = op.regions[1] if op.opcode == "while_loop" else None
        env = self.env
        num_carries = op.attrs.get("num_carries", len(op.operands))
        for i in range(len(op.operands)):
            group = [op.operands[i], body.params[i + 1]]
            if i < num_carries:
                group += [body.results[i], op.results[i]]
                if cond is not None:
                    group.append(cond.params[i + 1])
            for axis in self._axis_names:
                dims = set()
                for value in group:
                    dim = env.sharding(value).tile_dim_of(axis)
                    if dim is not None:
                        dims.add(dim)
                if len(dims) != 1:
                    if len(dims) > 1:
                        self._record_once(op, axis, "conflict", (
                            "{} carry {} tiled on dims {}",
                            op.opcode, i, sorted(dims)))
                    continue
                (dim,) = dims
                for value in group:
                    sharding = env.sharding(value)
                    if sharding.tile_refusal(dim, axis, value.type.shape[dim],
                                             self.mesh):
                        continue
                    env.set_sharding(value, sharding.with_tile(dim, axis))
                    env.record("tile", op, axis,
                               ("{} carry {}", op.opcode, i))


def propagate(function: Function, env: ShardingEnv) -> None:
    """Run propagation to a fixed point over ``function``, seeded from the
    values written since the last propagation over ``env`` (its dirty
    set): the fixed point of a whole-function sweep, at the cost of the
    delta."""
    Propagator(function, env).run()
