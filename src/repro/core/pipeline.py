"""The pipeline tactic: partition a loop body into stages over a mesh axis.

Pipeline parallelism is the control-flow dual of the tensor actions: instead
of slicing a *value* along a mesh axis, it slices a loop *body* into ``K``
contiguous stages (one per device along the axis) and streams the loop's
``trip_count`` iterations through them as microbatches under a GPipe or
1F1B schedule.  The tactic is encoded entirely in the existing sharding
state — no new IR, no schema changes:

* every value of the loop's subtree (the op's results plus everything its
  regions define) is **pinned** on the pipeline axis, so propagation and
  later actions can never tile that axis inside the loop (the axis is spent
  on stages), and
* the loop's *anchor* (its first result) additionally carries an opaque
  **marker pin** ``"pipe:<schedule>:<axis>"`` recording the schedule choice.

Because pins ride :meth:`repro.core.sharding.Sharding.signature`,
``portable_state``, the undo log, the estimator's memo keys and both
fingerprint tiers, the pipeline decision is checkpointable, undoable,
shippable to search workers and cacheable exactly like every tensor
action — which is what lets the MCTS treat
:data:`repro.core.actions.PIPELINE` as just another action kind.

Pricing inputs (stage split, bubble fraction, point-to-point bytes) are
static functions of the body region, computed here and memoized as views
of the body (:meth:`~repro.ir.function.Function.derived`); the lowering
injects them as ``pipeline_*`` attrs so both cost paths (the
materializing reference and the search's streaming estimator) price the
same numbers.  See
:func:`repro.sim.terms.loop_cost_terms` for the cost formula.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ShardingError
from repro.ir import opdefs
from repro.ir.function import Function
from repro.ir.values import Operation, Value
from repro.core.sharding import ShardingEnv

#: Prefix of the opaque marker pin recording a pipeline decision.  Mesh
#: axis names never contain ``":"`` in practice; the marker can therefore
#: never collide with a real axis pin.
PIPELINE_PIN_PREFIX = "pipe:"

#: Supported microbatch schedules, indexed by the wire tuple's ``dim``
#: slot.  Both have the same bubble (K-1 slots); they differ in how many
#: microbatches are in flight per stage, i.e. in activation memory.
SCHEDULES = ("1f1b", "gpipe")


def loop_ops(function: Function) -> List[Operation]:
    """Every loop op of ``function`` in canonical pre-order walk order
    (``function.index.loops``).

    The walk index is a loop's portable name in ``PIPELINE`` action tuples
    — two processes holding structurally-identical functions agree on it,
    exactly like tag-point indices.

    >>> from repro.trace.tracer import trace, ShapeDtype
    >>> from repro.trace import ops
    >>> tf = trace(lambda x: ops.scan(lambda i, c: [c + x], [x], 4),
    ...            ShapeDtype((4,)))
    >>> [op.opcode for op in loop_ops(tf.function)]
    ['scan']
    """
    return function.index.loops


def _subtree_values(op: Operation) -> Iterator[Value]:
    """Every value the loop op defines: its results, then its regions'."""
    yield from op.results
    for region in op.regions:
        yield from region.index.values


def pipeline_marker(env: ShardingEnv,
                    op: Operation) -> Optional[Tuple[str, str]]:
    """The loop's pipeline decision as ``(schedule, axis)``, or ``None``.

    Read from the marker pin on the loop's anchor (first result); pins are
    scanned in sorted order so the answer is deterministic.
    """
    for pin in sorted(env.sharding(op.results[0]).pinned):
        if pin.startswith(PIPELINE_PIN_PREFIX):
            _, schedule, axis = pin.split(":", 2)
            return schedule, axis
    return None


# -- static stage split -----------------------------------------------------------


def _op_weights(body: Function) -> List[float]:
    """Per-op FLOP weights of the body's top-level ops (the same opdef
    ``flops`` estimates the cost model charges)."""
    weights = []
    for op in body.ops:
        opdef = opdefs.get(op.opcode)
        flops = opdef.flops([v.type for v in op.operands], op.attrs) \
            if opdef.flops else 0.0
        weights.append(float(flops))
    return weights


def stage_split(body: Function, stages: int) -> Tuple[Tuple[int, ...], float]:
    """Contiguous split of the body's top-level ops into ``stages`` groups.

    Returns ``(group index per op, max stage fraction)``.  Ops are assigned
    by the cumulative-midpoint rule over their FLOP weights — op ``i`` with
    weight ``w`` joins group ``floor((cum_before + w/2) / total * K)`` — a
    deterministic O(n) balance that keeps groups contiguous (stages must be
    contiguous program slices: activations flow forward only).  When the
    body has no FLOPs the split is uniform by op index.  Memoized per
    stage count on the body.
    """
    return body.derived(("stage_split", stages),
                        lambda body: _stage_split(body, stages))


def _stage_split(body: Function,
                 stages: int) -> Tuple[Tuple[int, ...], float]:
    weights = _op_weights(body)
    total = sum(weights)
    n = len(weights)
    groups = []
    if total <= 0.0:
        for i in range(n):
            groups.append(min(stages - 1, i * stages // max(n, 1)))
        weights = [1.0] * n
        total = float(max(n, 1))
    else:
        cum = 0.0
        for w in weights:
            groups.append(min(stages - 1, int((cum + w / 2.0)
                                              / total * stages)))
            cum += w
    stage_weight = [0.0] * stages
    for g, w in zip(groups, weights):
        stage_weight[g] += w
    fraction = max(stage_weight) / total if total else 1.0
    return tuple(groups), fraction


def stage_fraction(body: Function, stages: int) -> float:
    """The heaviest stage's share of the body's FLOPs (the per-microbatch
    critical-path scale factor of the pipeline)."""
    return stage_split(body, stages)[1]


def body_p2p_bytes(body: Function, stages: int) -> int:
    """Point-to-point activation bytes one microbatch moves between stages.

    For every top-level body op result, the value travels from its
    producer's stage to its furthest consumer's stage (body results are
    consumed by the last stage, which owns the carry hand-back);
    intermediate hops relay through each stage boundary, so the value's
    contribution is ``span * nbytes``.  Global (unsharded) bytes are used —
    a static, sharding-independent estimate, consistent with the stage
    split itself.  Memoized per stage count on the body.
    """
    return body.derived(("body_p2p_bytes", stages),
                        lambda body: _body_p2p_bytes(body, stages))


def _body_p2p_bytes(body: Function, stages: int) -> int:
    groups, _ = stage_split(body, stages)
    group_of: Dict[int, int] = {}
    for index, op in enumerate(body.ops):
        for result in op.results:
            group_of[result.uid] = groups[index]

    # A top-level op "reads" a value when the op or anything in its nested
    # regions uses it.
    last_group: Dict[int, int] = {}

    def note_use(value: Value, group: int) -> None:
        if value.uid in group_of:
            existing = last_group.get(value.uid, -1)
            if group > existing:
                last_group[value.uid] = group

    for index, op in enumerate(body.ops):
        note_ops = [op]
        stack = list(op.regions)
        while stack:
            region = stack.pop()
            note_ops.extend(region.ops)
            for inner in region.ops:
                stack.extend(inner.regions)
        for inner in note_ops:
            for operand in inner.operands:
                note_use(operand, groups[index])
    for result in body.results:
        note_use(result, stages - 1)

    total = 0
    for op in body.ops:
        for result in op.results:
            span = last_group.get(result.uid, -1) - group_of[result.uid]
            if span > 0:
                total += span * result.type.nbytes
    return total


# -- legality / application -------------------------------------------------------


def pipeline_legal(env: ShardingEnv, op: Operation, axis: str,
                   schedule: str) -> bool:
    """May ``op``'s body be pipelined over ``axis`` with ``schedule``?

    Requires a loop op, a known schedule, a pipeline axis of at least two
    stages, at least one body op per stage, no existing pipeline marker on
    the loop, and the axis unused (tile/sum) and unpinned on every value of
    the loop's subtree — the axis is about to be spent on stages, so
    nothing inside the loop may already shard over it.
    """
    if op.opcode not in opdefs.LOOP_OPS:
        return False
    if schedule not in SCHEDULES:
        return False
    if axis not in env.mesh.axes:
        return False
    stages = env.mesh.size(axis)
    if stages < 2:
        return False
    if len(op.regions[0].ops) < stages:
        return False
    if pipeline_marker(env, op) is not None:
        return False
    for value in _subtree_values(op):
        if axis in env.sharding(value).taken:
            return False
    return True


def apply_pipeline(env: ShardingEnv, op: Operation, axis: str,
                   schedule: str) -> None:
    """Apply a legal pipeline action: pin the axis across the loop subtree
    and record the marker pin on the anchor.

    All writes funnel through :meth:`ShardingEnv.set_sharding`, so the
    decision is dirty-tracked, undo-logged and versioned like any tensor
    action.
    """
    if not pipeline_legal(env, op, axis, schedule):
        raise ShardingError(
            f"pipeline: illegal over axis {axis!r} ({schedule}) on "
            f"{op.opcode}"
        )
    for value in _subtree_values(op):
        sharding = env.sharding(value)
        if not sharding.is_pinned(axis):
            env.set_sharding(value, sharding.with_pin(axis))
    anchor = op.results[0]
    token = f"{PIPELINE_PIN_PREFIX}{schedule}:{axis}"
    env.set_sharding(anchor, env.sharding(anchor).with_pin(token))
    env.record("pin", op, axis, f"pipeline {schedule} over {axis!r}")


def pipeline_schedule_attrs(op: Operation, env: ShardingEnv,
                            mesh) -> Dict[str, object]:
    """The ``pipeline_*`` attrs the lowering injects into a pipelined loop
    (empty when the loop carries no marker).

    These are what both cost paths price from — computing them in exactly
    one place is what keeps the materialized and streaming estimates
    bit-identical on pipelined programs.
    """
    marker = pipeline_marker(env, op)
    if marker is None:
        return {}
    schedule, axis = marker
    stages = mesh.size(axis)
    body = op.regions[0]
    return {
        "pipeline_axis": axis,
        "pipeline_schedule": schedule,
        "pipeline_stages": stages,
        "pipeline_stage_fraction": stage_fraction(body, stages),
        "pipeline_p2p_bytes": body_p2p_bytes(body, stages),
    }
