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
``blocked`` for its ``(op, axis)``; and deferral is guarded by ``used``,
which the deferred sum joins.  ``tests/test_settled_revisits.py`` checks
the schedule against ``tests/oracle.py::RevisitingPropagator``, which
always re-enqueues.

**One compiled kernel.**  Every visit runs the same per-op transfer
function (:meth:`Propagator._visit`), compiled per function into shared
records (:class:`_Transfer`, :class:`_FunctionIndex`) so a visit indexes
tuples and reads attributes of canonical shardings instead of calling
into the rule registry.  Comparing against a sweep therefore cannot catch
a kernel bug; `tests/test_propagation_golden.py` pins fixed points and
event lists to values generated before the kernel was compiled (and
visit counts to the settled rule's).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import Operation, Value
from repro.core import rules as rules_mod
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


class _Transfer:
    """What a visit needs to know about an op besides its values: shared
    by every op with the same sharding rule and operand/result ranks.

    Adjacent values are numbered operands first, then results; ``k``
    below is that number.
    """

    __slots__ = ("loop", "single_result", "num_operands", "defaults",
                 "dim_factors", "factors")

    def __init__(self, rule, operand_ranks: Tuple[int, ...],
                 result_ranks: Tuple[int, ...], loop: bool):
        #: Loop ops unify carries (``_process_loop``); nothing below applies.
        self.loop = loop
        self.single_result = len(result_ranks) == 1
        self.num_operands = n = len(operand_ranks)
        #: The replicated sharding an absent env entry stands for, per k.
        self.defaults = tuple(Sharding.replicated(rank)
                              for rank in operand_ranks + result_ranks)
        #: ``dim_factors[k][dim]`` -> factor id or None (None: no rule).
        self.dim_factors = None
        #: Per factor id: ``(((k, dim, is_operand), ...), reduce)``.
        self.factors = ()
        if rule is None or loop:
            return
        sides = [("in", i, rank) for i, rank in enumerate(operand_ranks)]
        sides += [("out", r, rank) for r, rank in enumerate(result_ranks)]
        self.dim_factors = tuple(
            tuple(rule.by_position.get((side, index, dim))
                  for dim in range(rank))
            for side, index, rank in sides
        )
        self.factors = tuple(
            (tuple((index if side == "in" else n + index, dim, side == "in")
                   for side, index, dim in factor.entries),
             factor.reduce)
            for factor in rule.factors
        )


#: (rule, operand ranks, result ranks, is loop) -> the shared record.
#: Process-local (records hold canonical shardings): never pickled.
_TRANSFERS: Dict[tuple, _Transfer] = {}


def _transfer_for(op: Operation) -> _Transfer:
    loop = op.opcode in opdefs.LOOP_OPS
    key = (None if loop else rules_mod.rule_for(op),
           tuple(len(v.type.shape) for v in op.operands),
           tuple(len(v.type.shape) for v in op.results),
           loop)
    transfer = _TRANSFERS.get(key)
    if transfer is None:
        transfer = _TRANSFERS.setdefault(key, _Transfer(*key))
    return transfer


class _FunctionIndex:
    """Per-op transfer records (parallel to ``function.index.ops``, the
    worklist's numbering) and value->op adjacency for one function: a
    view of it (:meth:`Function.derived`), so it is rebuilt when the
    function grows and never pickled."""

    __slots__ = ("ops", "transfers", "adjacency", "may_settle")

    def __init__(self, function: Function):
        self.ops: List[Operation] = function.index.ops
        #: Parallel to ``ops``: one reference into the shared records.
        self.transfers: List[_Transfer] = [
            _transfer_for(op) for op in self.ops
        ]
        # adjacency[value] = sorted walk indices of ops whose transfer reads
        # that value's sharding.
        adjacency: Dict[Value, List[int]] = {}

        def link(value: Value, index: int) -> None:
            indices = adjacency.setdefault(value, [])
            if not indices or indices[-1] != index:
                indices.append(index)

        for index, op in enumerate(self.ops):
            for value in op.operands:
                link(value, index)
            for value in op.results:
                link(value, index)
            if op.opcode in opdefs.LOOP_OPS:
                # _process_loop also reads the body's params and results
                # (and, for while_loop, the predicate's carry params).
                body = op.regions[0]
                for value in body.params:
                    link(value, index)
                for value in body.results:
                    link(value, index)
                if op.opcode == "while_loop":
                    for value in op.regions[1].params:
                        link(value, index)
        self.adjacency: Dict[Value, Tuple[int, ...]] = {
            value: tuple(indices) for value, indices in adjacency.items()
        }
        #: Parallel to ``ops``: may a visit be settled (rules (a) and (b)
        #: of the module docstring)?
        self.may_settle: List[bool] = [
            not transfer.loop
            and len(set(op.operands + op.results))
            == len(op.operands) + len(op.results)
            for op, transfer in zip(self.ops, self.transfers)
        ]


def _function_index(function: Function) -> _FunctionIndex:
    """Propagation's view of ``function``."""
    return function.derived("propagate", _FunctionIndex)


class Propagator:
    """Runs tiling/pending propagation over one function (and regions).

    A visit (:meth:`_visit`) touches no rule object and calls no sharding
    method: it reads each adjacent value's canonical sharding straight
    out of the env's dict (an absent entry is the transfer record's
    replicated default), finds the factor a tiled dim belongs to by
    indexing the record's ``dim -> factor id`` tuples, and reads
    ``used`` / ``tile_dims`` / ``sum_axes`` / ``pinned`` as attributes.
    Events carry unformatted payloads (:class:`repro.core.sharding.Event`).
    """

    def __init__(self, function: Function, env: ShardingEnv):
        self.function = function
        self.env = env
        self.mesh = env.mesh
        self._axis_names = env.mesh.axis_names
        self._reported: Set[Tuple[int, str, str]] = set()
        self._index = _function_index(function)
        #: Cleared by the last visit's checks (c) and (d) of the settled
        #: rule; only read after a visit that wrote.
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
        transfers = self._index.transfers
        adjacency = self._index.adjacency
        may_settle = self._index.may_settle
        env = self.env
        stats = env.stats
        visit = self._visit
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
                before = env._write_serial
                transfer = transfers[i]
                if transfer.loop:
                    self._process_loop(ops[i])
                else:
                    visit(ops[i], transfer)
                if env._write_serial == before:
                    continue
                # Re-enqueue every op adjacent to a value we just changed:
                # later ops join this round (program order), earlier ones
                # wait for the next round — sweep semantics — and so does
                # this op, unless its visit was settled.
                own = i if may_settle[i] and self._settled else -1
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

    # -- helpers ------------------------------------------------------------

    def _report_once(self, op: Operation, axis: str, kind: str,
                     *detail) -> None:
        """Record ``kind`` for ``(op, axis)`` once per run; ``detail`` is
        a lazy ``(format, *args)`` payload."""
        key = (id(op), axis, kind)
        if key not in self._reported:
            self._reported.add(key)
            self.env.record(kind, op, axis, detail)

    def _adjacent(self, values: List[Value],
                  defaults: Tuple[Sharding, ...]) -> List[Sharding]:
        """Current shardings of an op's ``values`` (operands, then
        results)."""
        return [
            default if sharding is None else sharding
            for sharding, default in zip(
                map(self.env._shardings.get, values), defaults)
        ]

    # -- the per-op transfer function ------------------------------------------

    def _visit(self, op: Operation, transfer: _Transfer) -> None:
        """Match, extend and defer on every mesh axis, in mesh-axis order.

        Which factors have evidence on an axis (a value tiled on one of
        the factor's positions) and which operands carry a pending sum
        over it are read once, up front: a write made while handling one
        axis only ever adds *that* axis to a sharding, so it cannot change
        either answer for a later axis.  Everything a decision on the
        current axis reads is re-read after each write.
        """
        values = op.operands + op.results
        shardings = list(map(self.env._shardings.get, values))
        if not any(shardings):  # (a Sharding is always truthy)
            return  # every neighbour replicated: nothing to match or defer
        dim_factors = transfer.dim_factors
        num_operands = transfer.num_operands
        defaults = transfer.defaults
        evidence: Dict[str, Set[int]] = {}
        pending: Dict[str, List[int]] = {}
        for k, sharding in enumerate(shardings):
            if sharding is None:
                shardings[k] = defaults[k]
                continue
            if not sharding.used:
                continue
            if dim_factors is not None:
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
            return
        self._settled = True  # (every visit that writes gets here)
        defer = bool(pending) and transfer.single_result
        stale = False  # did a write outdate ``shardings``?
        for axis in self._axis_names:
            fids = evidence.get(axis)
            if fids is not None:
                if stale:
                    shardings = self._adjacent(values, defaults)
                stale = self._match_axis(op, transfer, axis, fids, values,
                                         shardings)
            if defer and axis in pending:
                if stale:
                    shardings = self._adjacent(values, defaults)
                stale = self._defer_pending(op, axis, pending[axis],
                                            shardings[num_operands])

    def _match_axis(self, op: Operation, transfer: _Transfer, axis: str,
                    evidence: Set[int], values: List[Value],
                    shardings: List[Sharding]) -> bool:
        factors = transfer.factors
        extendable = []
        for fid in evidence:
            if self._extendable(op, factors[fid], axis, values, shardings):
                extendable.append(fid)
        if not extendable:
            return False
        if len(extendable) > 1:
            self._settled = False  # rule (c)
        chosen = self._choose(op, axis, extendable)
        if chosen is None:
            return False
        return self._apply_factor(op, factors[chosen], axis, values,
                                  transfer.defaults)

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

    def _extendable(self, op: Operation, factor, axis: str,
                    values: List[Value], shardings: List[Sharding]) -> bool:
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
            if axis in sharding.used or axis in sharding.pinned:
                self._report_once(
                    op, axis, "blocked",
                    "{}: value already uses axis {!r}", op.opcode, axis)
                return False
            if values[k].type.shape[dim] % (mesh.group_size(axes)
                                            * mesh.size(axis)):
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
                if axis in sharding.used or axis in sharding.pinned:
                    self._settled = False  # rule (d): rejected silently
                    return False
                missing = True
        return missing

    def _apply_factor(self, op: Operation, factor, axis: str,
                      values: List[Value],
                      defaults: Tuple[Sharding, ...]) -> bool:
        entries, reduce = factor
        env = self.env
        get = env._shardings.get
        changed = False
        for k, dim, _ in entries:
            value = values[k]
            # Re-read per write: one value may sit at two positions.
            sharding = get(value) or defaults[k]
            if axis in sharding.dim_axes[dim] or axis in sharding.sum_axes:
                continue
            env.set_sharding(value, sharding.with_tile(dim, axis))
            env.record("tile", op, axis, ("dim {} of {!r}", dim, value))
            changed = True
        if reduce:
            for k in range(len(op.operands), len(values)):
                sharding = get(values[k]) or defaults[k]
                if axis not in sharding.sum_axes:
                    env.set_sharding(values[k], sharding.with_sum(axis))
                    env.record("sum", op, axis, ("{} result", op.opcode))
                    changed = True
        return changed

    # -- pending-sum deferral -------------------------------------------------

    def _defer_pending(self, op: Operation, axis: str, pending: List[int],
                       result_sharding: Sharding) -> bool:
        """Pass a pending #sum over ``axis`` on the ``pending`` operands
        through a single-result op that may defer it."""
        if axis in result_sharding.used or axis in result_sharding.pinned:
            return False
        if not may_defer(op, axis, pending):
            return False
        self.env.set_sharding(op.results[0], result_sharding.with_sum(axis))
        self.env.record("sum", op, axis,
                        ("deferred through {}", op.opcode))
        return True

    # -- loops -------------------------------------------------------------------

    def _process_loop(self, op: Operation) -> bool:
        """Unify carry shardings through any loop op: operand_i, body param
        i+1, body result i and op result i must agree (the loop state keeps
        one layout across iterations).  ``while_loop``'s predicate reads the
        same carries, so its param i+1 joins carry i's group."""
        body = op.regions[0]
        cond = op.regions[1] if op.opcode == "while_loop" else None
        changed = False
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
                    dim = self.env.sharding(value).tile_dim_of(axis)
                    if dim is not None:
                        dims.add(dim)
                if len(dims) != 1:
                    if len(dims) > 1:
                        self._report_once(
                            op, axis, "conflict",
                            "{} carry {} tiled on dims {}",
                            op.opcode, i, sorted(dims))
                    continue
                (dim,) = dims
                for value in group:
                    sharding = self.env.sharding(value)
                    if axis in sharding.dim_axes[dim]:
                        continue
                    if sharding.uses(axis) or sharding.is_pinned(axis):
                        continue
                    if value.type.shape[dim] % (
                        self.mesh.group_size(sharding.dim_axes[dim])
                        * self.mesh.size(axis)
                    ):
                        continue
                    self.env.set_sharding(value, sharding.with_tile(dim, axis))
                    self.env.record("tile", op, axis,
                                    ("{} carry {}", op.opcode, i))
                    changed = True
        return changed


def propagate(function: Function, env: ShardingEnv) -> None:
    """Run propagation to a fixed point over ``function``, seeded from the
    values written since the last propagation over ``env`` (its dirty
    set): the fixed point of a whole-function sweep, at the cost of the
    delta."""
    Propagator(function, env).run()
