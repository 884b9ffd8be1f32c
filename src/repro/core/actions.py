"""PartIR compiler actions: ``tile``, ``atomic`` and ``tag`` (Sections 3, 5, 8).

Manual and automatic tactics both reduce to sequences of these actions plus
``propagate``; composability in the paper comes precisely from this shared
action vocabulary.

It is also the one home of the automatic search's action kinds (the
wire-form tuples ``(kind, index, dim, axis)``): their legality and
application (:func:`try_apply_action`), the index space each addresses
(:func:`index_space`) and their text (:func:`describe`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ShardingError
from repro.ir.function import Function
from repro.ir.tagpoints import tag_points
from repro.ir.values import Operation, Value
from repro.core import pipeline as pipeline_mod
from repro.core import rules as rules_mod
from repro.core.sharding import ShardingEnv


def tile(env: ShardingEnv, value: Value, dim: int, axis: str) -> None:
    """Value-tiling action ``tile<value, dim, axis>`` (Section 5.1)."""
    sharding = env.sharding(value)
    rank = len(value.type.shape)
    if not 0 <= dim < rank:
        raise ShardingError(
            f"tile: dim {dim} out of range for rank-{rank} value"
        )
    if sharding.uses(axis):
        raise ShardingError(
            f"tile: axis {axis!r} already used by {value!r} "
            f"({sharding.spec()}); an axis cannot be introduced twice"
        )
    if sharding.is_pinned(axis):
        raise ShardingError(f"tile: axis {axis!r} is pinned on {value!r}")
    axis_size = env.mesh.size(axis)
    denom = env.mesh.group_size(sharding.dim_axes[dim]) * axis_size
    if value.type.shape[dim] % denom:
        raise ShardingError(
            f"tile: dim {dim} of size {value.type.shape[dim]} not divisible "
            f"by {denom} (axis {axis!r})"
        )
    env.set_sharding(value, sharding.with_tile(dim, axis))
    env.record("tile", None, axis, f"user tile dim {dim} of {value!r}")


def atomic(env: ShardingEnv, value: Value, axis: str) -> None:
    """Replication pin ``atomic<value, axis>`` (Section 8): keeps the value
    replicated along ``axis`` and blocks propagation through it."""
    sharding = env.sharding(value)
    if sharding.uses(axis):
        raise ShardingError(
            f"atomic: axis {axis!r} already used by {value!r}"
        )
    env.set_sharding(value, sharding.with_pin(axis))
    env.record("pin", None, axis, f"atomic on {value!r}")


def first_divisible_dim(value: Value, axis_size: int,
                        sharding=None, mesh=None) -> Optional[int]:
    """The paper's FIRST_DIVISIBLE_DIM spec: first dim divisible by the axis
    size, accounting for tiling already present on the dim."""
    for dim, size in enumerate(value.type.shape):
        denom = axis_size
        if sharding is not None and mesh is not None:
            denom *= mesh.group_size(sharding.dim_axes[dim])
        if size >= denom and size % denom == 0:
            return dim
    return None


# ---------------------------------------------------------------------------
# search action kinds (the widened automatic action space)
# ---------------------------------------------------------------------------
#
# The automatic search manipulates actions as flat, sortable, picklable
# 4-tuples ``(kind, index, dim, axis)`` — the wire form stored in the
# transposition log, shipped to search workers and hashed for routing.  The
# kinds:
#
# * ``TILE_INPUT``  — tile function input ``index``'s ``dim`` along ``axis``
#   (the classic input-tiling action).
# * ``TILE_TAGGED`` — tile the ``index``-th *tag point*'s value (see
#   :mod:`repro.ir.tagpoints`) on ``dim`` along ``axis``: a mid-function
#   tiling decision propagation then extends both ways.
# * ``SUM_TAGGED``  — tile the ``index``-th tag point's *source op* on its
#   ``dim``-th contracting (reduce) factor along ``axis``: the operand
#   positions of that factor are tiled and every result becomes a pending
#   ``#sum`` over the axis — the mid-function form of contracting-dimension
#   parallelism (one ``all_reduce``/``reduce_scatter`` at the first
#   non-deferring use).
# * ``PIPELINE``    — pipeline the ``index``-th *loop op* (canonical
#   pre-order over ``scan``/``fori_loop``/``while_loop``, see
#   :func:`repro.core.pipeline.loop_ops`) over ``axis``; the ``dim`` slot
#   carries the schedule id (an index into
#   :data:`repro.core.pipeline.SCHEDULES`: 0 = 1F1B, 1 = GPipe).
#
# Tuples of mixed kinds sort lexicographically (kind first), which is the
# canonical-set order the evaluator scores and the replay applies.  A new
# kind is a constant here, a row of ``_KINDS``, a branch of
# :func:`try_apply_action` and its enumeration in
# :func:`repro.auto.evaluator.candidate_actions`.

TILE_INPUT = 0
TILE_TAGGED = 1
SUM_TAGGED = 2
PIPELINE = 3

#: The action wire form: ``(kind, index, dim, axis)``.
ActionTuple = Tuple[int, int, int, str]

#: Per kind: its name, what its ``dim`` slot holds, and the index space
#: its ``index`` addresses (``"param"``, ``"tag"`` point or ``"loop"``
#: op).  Indexed by kind, so an unknown kind is an ``IndexError``.
_KINDS = (
    ("tile_input", "dim", "param"),
    ("tile_tagged", "dim", "tag"),
    ("sum_tagged", "factor", "tag"),
    ("pipeline", "schedule", "loop"),
)


def index_space(kind: int) -> str:
    """What a ``kind`` action's ``index`` addresses: ``"param"``, ``"tag"``
    or ``"loop"`` (the spaces :mod:`repro.auto.fingerprint` permutes)."""
    return _KINDS[kind][2]


def describe(action: ActionTuple) -> str:
    """A wire-form action as text.

    >>> describe((1, 3, 1, "model"))
    'tile_tagged 3 dim 1 over model'
    >>> describe((2, 3, 0, "model"))
    'sum_tagged 3 factor 0 over model'
    >>> describe((3, 0, 1, "stage"))
    'pipeline 0 schedule 1 over stage'
    """
    kind, index, dim, axis = action
    name, slot, _ = _KINDS[kind]
    return f"{name} {index} {slot} {dim} over {axis}"


def tile_legal(env: ShardingEnv, value: Value, dim: int, axis: str) -> bool:
    """May ``value``'s ``dim`` still be tiled along ``axis`` under ``env``?"""
    sharding = env.sharding(value)
    if sharding.uses(axis) or sharding.is_pinned(axis):
        return False
    denom = env.mesh.group_size(sharding.dim_axes[dim])
    return value.type.shape[dim] % (denom * env.mesh.size(axis)) == 0


def reduce_factors(op: Operation) -> List[rules_mod.Factor]:
    """The contracting (reduce) factors of ``op``'s sharding rule, in rule
    order — the targets of ``SUM_TAGGED`` actions (empty for ops without a
    rule or without contracting dimensions)."""
    rule = rules_mod.rule_for(op)
    if rule is None:
        return []
    return [factor for factor in rule.factors if factor.reduce]


def sum_target(function: Function, tag: int, factor: int):
    """Resolve a ``SUM_TAGGED`` action's ``(source op, reduce factor)``, or
    ``None`` when the tag point has no source / no such factor."""
    points = tag_points(function)
    if tag >= len(points):
        return None
    source = points[tag].source
    if source is None:
        return None
    factors = reduce_factors(source)
    if factor >= len(factors):
        return None
    return source, factors[factor]


def sum_tagged_legal(env: ShardingEnv, op: Operation, factor,
                     axis: str) -> bool:
    """May ``factor`` (a reduce factor of ``op``) be tiled along ``axis``?

    Every operand position of the factor must accept the tile (axis unused,
    not pinned, dim divisible) and every result must accept the pending
    ``#sum`` (axis unused, not pinned) — the same conditions propagation's
    factor matching enforces before applying a contracting factor.  One
    value appearing at two factor positions with *different* dims (a
    self-contraction like ``x @ x``) is illegal: the single value cannot
    carry the axis on both dims.
    """
    required_dims: Dict[Value, int] = {}
    for _, i, dim in factor.entries:
        value = op.operands[i]
        seen = required_dims.get(value)
        if seen is not None:
            if seen != dim:
                return False  # self-contraction: one value, two dims
            continue
        required_dims[value] = dim
        if not tile_legal(env, value, dim, axis):
            return False
    for result in op.results:
        sharding = env.sharding(result)
        if sharding.uses(axis) or sharding.is_pinned(axis):
            return False
    return True


def apply_sum_tagged(env: ShardingEnv, op: Operation, factor,
                     axis: str) -> None:
    """Apply a legal ``SUM_TAGGED`` action: tile the factor's operand
    positions and mark every result pending — exactly the write set of
    propagation's ``_apply_factor`` on a contracting factor (including its
    per-write re-read guard, so duplicate positions over one value are
    idempotent), so the subsequent propagation fixed point is the one the
    factor rules imply."""
    for _, i, dim in factor.entries:
        value = op.operands[i]
        sharding = env.sharding(value)
        if axis in sharding.dim_axes[dim] or axis in sharding.sum_axes:
            continue
        env.set_sharding(value, sharding.with_tile(dim, axis))
    for result in op.results:
        sharding = env.sharding(result)
        if axis not in sharding.sum_axes:
            env.set_sharding(result, sharding.with_sum(axis))


def try_apply_action(function: Function, env: ShardingEnv,
                     action: ActionTuple) -> bool:
    """Apply one wire-form action if it is still legal under ``env``.

    Returns False — leaving the env untouched — when the action is no
    longer legal (an earlier action in the canonical set already consumed
    the axis, or propagation already tiled the target) or addresses a tag
    point, reduce factor, loop or schedule the function does not have.
    """
    kind, index, dim, axis = action
    if kind == SUM_TAGGED:
        target = sum_target(function, index, dim)
        if target is None or not sum_tagged_legal(env, *target, axis):
            return False
        apply_sum_tagged(env, *target, axis)
        return True
    if kind == PIPELINE:
        loops = pipeline_mod.loop_ops(function)
        if index >= len(loops) or dim >= len(pipeline_mod.SCHEDULES):
            return False
        schedule = pipeline_mod.SCHEDULES[dim]
        if not pipeline_mod.pipeline_legal(env, loops[index], axis, schedule):
            return False
        pipeline_mod.apply_pipeline(env, loops[index], axis, schedule)
        return True
    if kind == TILE_INPUT:
        value = function.params[index]
    elif kind == TILE_TAGGED and index < len(tag_points(function)):
        value = tag_points(function)[index].value
    else:
        return False
    if not tile_legal(env, value, dim, axis):
        return False
    env.set_sharding(value, env.sharding(value).with_tile(dim, axis))
    return True


def find_tagged(function: Function, name: str) -> Value:
    """Resolve a ``tag``-named internal value (Section 8's model-internal
    annotations)."""
    for point in tag_points(function):
        if point.op.attrs.get("name") == name:
            return point.value
    raise KeyError(f"no tag named {name!r} in @{function.name}")
