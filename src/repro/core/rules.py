"""The tile-mapping registry (TMR), built from per-op *factor rules*.

Section 5.2.1 defines TMR entries ``t1,...,tn -> s1,...,sk`` asserting that an
op can be rewritten as a loop if its operands are sliced in matching ways.
Rather than enumerating entries per op pair, each op declares its dimension
*factors* — einsum-style groups of (operand, dim) / (result, dim) positions
that range over the same index space.  A factor with no result position is
*contracting*: tiling it yields a ``#sum`` loop (a pending reduction).

Every TMR entry of the paper corresponds to tiling exactly one factor, so the
propagation pass can match/extend entries generically by factor.  Dimensions
not covered by any factor are *blocked* (e.g. conv spatial dims, the iota
dimension): propagation never tiles them, and a value arriving sharded on a
blocked dimension is gathered at the use site during lowering — the same
behaviour the paper describes for reshape/spatial limitations (Section 8).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.ir import opdefs
from repro.ir.ops_linalg import dot_general_dims
from repro.ir.values import Operation

# A position is (side, index, dim) with side "in" or "out".
Position = Tuple[str, int, int]


@dataclasses.dataclass(frozen=True)
class Factor:
    entries: Tuple[Position, ...]
    reduce: bool = False  # contracting factor: tiling it makes results pending

    def in_entries(self):
        return [e for e in self.entries if e[0] == "in"]


@dataclasses.dataclass(eq=False)
class OpShardingRule:
    """One factor table.  :func:`rule_for` hands out a single shared
    instance per distinct table, so rules compare and hash by identity
    and must never be mutated."""

    factors: Tuple[Factor, ...]

    def __post_init__(self):
        self.factors = tuple(self.factors)
        self.by_position: Dict[Position, int] = {}
        for fid, factor in enumerate(self.factors):
            for pos in factor.entries:
                if pos in self.by_position:
                    raise ValueError(f"position {pos} in two factors")
                self.by_position[pos] = fid

    def factor_of(self, side: str, index: int, dim: int) -> Optional[int]:
        return self.by_position.get((side, index, dim))


RuleBuilder = Callable[[Operation], Optional[OpShardingRule]]
_BUILDERS: Dict[str, RuleBuilder] = {}
#: One shared rule per distinct factor table, process-wide: a model has
#: thousands of ops and a few dozen tables.
_SHARED: Dict[Tuple[Factor, ...], OpShardingRule] = {}


def rule(opcode: str):
    def register(fn: RuleBuilder) -> RuleBuilder:
        _BUILDERS[opcode] = fn
        return fn

    return register


def rule_for(op: Operation) -> Optional[OpShardingRule]:
    """The sharding rule for an op, or None if the op is fully blocked.

    Cached on the op (ops are structurally frozen after construction, so
    the rule — a pure function of opcode/attrs/operand types — never
    changes) as a reference to the one shared :class:`OpShardingRule` for
    its factor table: structurally identical ops hold the same object.
    The reference is dropped when an op is pickled and rebuilt — to the
    receiving process's shared instance — on first use.
    """
    try:
        return op._sharding_rule
    except AttributeError:
        pass
    builder = _BUILDERS.get(op.opcode)
    if builder is not None:
        rule = builder(op)
    else:
        opdef = opdefs.get(op.opcode)
        rule = _elementwise_rule(op) if opdef.elementwise else None
    if rule is not None:
        rule = _SHARED.setdefault(rule.factors, rule)
    op._sharding_rule = rule
    return rule


def _elementwise_rule(op: Operation) -> OpShardingRule:
    rank = len(op.result.type.shape)
    n = len(op.operands)
    factors = [
        Factor(
            tuple(("in", i, d) for i in range(n)) + (("out", 0, d),)
        )
        for d in range(rank)
    ]
    return OpShardingRule(factors)


# ---------------------------------------------------------------------------
# linalg / structural ops
# ---------------------------------------------------------------------------

@rule("dot_general")
def _dot_general_rule(op):
    lhs, rhs = op.operands
    lb, rb, lc, rc, lf, rf = dot_general_dims(
        len(lhs.type.shape), len(rhs.type.shape), op.attrs
    )
    factors = []
    out = 0
    for dl, dr in zip(lb, rb):
        factors.append(Factor((("in", 0, dl), ("in", 1, dr), ("out", 0, out))))
        out += 1
    lf_out = out
    for d in lf:
        factors.append(Factor((("in", 0, d), ("out", 0, out))))
        out += 1
    for d in rf:
        factors.append(Factor((("in", 1, d), ("out", 0, out))))
        out += 1
    for dl, dr in zip(lc, rc):
        factors.append(Factor((("in", 0, dl), ("in", 1, dr)), reduce=True))
    return OpShardingRule(factors)


@rule("tag")
def _tag_rule(op):
    """Tag markers are sharding-transparent: every dimension of the tagged
    value ties 1:1 to the same dimension of the result, so a mid-function
    ``TILE_TAGGED`` action on the tag's value propagates backward to the
    producing op and forward to every consumer exactly as if the tiling had
    been written on the computation itself.  (Identical to the generic
    elementwise rule; registered explicitly because tag points are the
    anchors of the widened action space, and their transparency is a
    documented contract rather than an elementwise coincidence.)"""
    rank = len(op.result.type.shape)
    return OpShardingRule([
        Factor((("in", 0, d), ("out", 0, d))) for d in range(rank)
    ])


@rule("transpose")
def _transpose_rule(op):
    perm = tuple(op.attrs["permutation"])
    factors = [
        Factor((("in", 0, operand_dim), ("out", 0, out_dim)))
        for out_dim, operand_dim in enumerate(perm)
    ]
    return OpShardingRule(factors)


@rule("reshape")
def _reshape_rule(op):
    """Tie the *leading* dims of matching size-groups (Section 8's limited
    reshape support): splits/merges are shardable on the outermost subdim."""
    in_shape = op.operands[0].type.shape
    out_shape = tuple(op.attrs["new_shape"])
    factors = []
    i = j = 0
    while i < len(in_shape) and j < len(out_shape):
        in_prod, out_prod = in_shape[i], out_shape[j]
        i_end, j_end = i + 1, j + 1
        while in_prod != out_prod:
            if in_prod < out_prod:
                if i_end >= len(in_shape):
                    return OpShardingRule(factors)
                in_prod *= in_shape[i_end]
                i_end += 1
            else:
                if j_end >= len(out_shape):
                    return OpShardingRule(factors)
                out_prod *= out_shape[j_end]
                j_end += 1
        # Group [i, i_end) <-> [j, j_end): tie the first *non-degenerate*
        # dims (size-1 dims do not affect row-major layout, so e.g. the
        # squeeze [B,T,1,H,d] -> [B,T,H,d] keeps H shardable).
        i0 = next((d for d in range(i, i_end) if in_shape[d] != 1), None)
        j0 = next((d for d in range(j, j_end) if out_shape[d] != 1), None)
        if i0 is not None and j0 is not None:
            factors.append(Factor((("in", 0, i0), ("out", 0, j0))))
        i, j = i_end, j_end
    return OpShardingRule(factors)


@rule("broadcast_in_dim")
def _broadcast_rule(op):
    bdims = tuple(op.attrs["broadcast_dimensions"])
    in_shape = op.operands[0].type.shape
    out_shape = tuple(op.attrs["shape"])
    factors = []
    covered = set()
    for operand_dim, out_dim in enumerate(bdims):
        covered.add(out_dim)
        if in_shape[operand_dim] == out_shape[out_dim] and in_shape[operand_dim] != 1:
            factors.append(Factor((("in", 0, operand_dim), ("out", 0, out_dim))))
        else:
            # Size-1 expansion: output dim is free (operand replicated).
            factors.append(Factor((("out", 0, out_dim),)))
    for out_dim in range(len(out_shape)):
        if out_dim not in covered:
            factors.append(Factor((("out", 0, out_dim),)))
    return OpShardingRule(factors)


def _reduce_rule(op):
    dims = tuple(sorted(op.attrs["dims"]))
    in_rank = len(op.operands[0].type.shape)
    factors = []
    out = 0
    for d in range(in_rank):
        if d in dims:
            factors.append(Factor((("in", 0, d),), reduce=True))
        else:
            factors.append(Factor((("in", 0, d), ("out", 0, out))))
            out += 1
    return OpShardingRule(factors)


rule("reduce_sum")(_reduce_rule)


@rule("reduce_max")
def _reduce_max_rule(op):
    # Max over a tiled dim would need a max-all_reduce; supported as a
    # reduce factor with kind recorded on the op during lowering.
    return _reduce_rule(op)


@rule("concatenate")
def _concatenate_rule(op):
    dim = op.attrs["dim"]
    rank = len(op.result.type.shape)
    n = len(op.operands)
    factors = []
    for d in range(rank):
        if d == dim:
            continue  # blocked
        factors.append(
            Factor(tuple(("in", i, d) for i in range(n)) + (("out", 0, d),))
        )
    return OpShardingRule(factors)


@rule("slice")
def _slice_rule(op):
    starts = tuple(op.attrs["starts"])
    limits = tuple(op.attrs["limits"])
    strides = tuple(op.attrs.get("strides") or (1,) * len(starts))
    in_shape = op.operands[0].type.shape
    factors = []
    for d in range(len(in_shape)):
        untouched = (
            starts[d] == 0 and limits[d] == in_shape[d] and strides[d] == 1
        )
        if untouched:
            factors.append(Factor((("in", 0, d), ("out", 0, d))))
    return OpShardingRule(factors)


@rule("pad")
def _pad_rule(op):
    low = tuple(op.attrs["low"])
    high = tuple(op.attrs["high"])
    factors = []
    for d in range(len(low)):
        if low[d] == 0 and high[d] == 0:
            factors.append(Factor((("in", 0, d), ("out", 0, d))))
    return OpShardingRule(factors)


@rule("constant")
def _constant_rule(op):
    rank = len(op.result.type.shape)
    return OpShardingRule(
        [Factor((("out", 0, d),)) for d in range(rank)]
    )


@rule("iota")
def _iota_rule(op):
    rank = len(op.result.type.shape)
    iota_dim = op.attrs["dim"]
    return OpShardingRule(
        [Factor((("out", 0, d),)) for d in range(rank) if d != iota_dim]
    )


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

@rule("take")
def _take_rule(op):
    operand, indices = op.operands
    n_index_dims = len(indices.type.shape)
    trailing = len(operand.type.shape) - 1
    factors = []
    # Indices dims map to leading result dims (a pure batch map).
    for d in range(n_index_dims):
        factors.append(Factor((("in", 1, d), ("out", 0, d))))
    # Operand trailing dims map to trailing result dims; the indexed dim
    # (vocab) is blocked (sharding it needs masked lookups; see DESIGN.md).
    for t in range(trailing):
        factors.append(
            Factor((("in", 0, 1 + t), ("out", 0, n_index_dims + t)))
        )
    return OpShardingRule(factors)


def _is_zeros(value) -> bool:
    """Conservatively detect a zeros tensor (broadcast/reshape of 0.0)."""
    producer = value.producer
    seen = 0
    while producer is not None and seen < 4:
        if producer.opcode == "constant":
            import numpy as np

            return bool((producer.attrs["value"] == 0).all())
        if producer.opcode in ("broadcast_in_dim", "reshape"):
            value = producer.operands[0]
            producer = value.producer
            seen += 1
            continue
        return False
    return False


@rule("scatter_add")
def _scatter_add_rule(op):
    operand, indices, updates = op.operands
    trailing = len(operand.type.shape) - 1
    factors = []
    # Trailing feature dims are tied across operand/updates/result.
    for t in range(trailing):
        factors.append(
            Factor(
                (("in", 0, 1 + t), ("in", 2, 1 + t), ("out", 0, 1 + t))
            )
        )
    # The scattered-into dim (nodes) is blocked: sharding it needs masked
    # scatters. The update rows dim (edges) is contracting *when the operand
    # is zeros* (segment-sum): partial scatters on each device sum to the
    # full result. This is exactly the GNS edge-sharding entry.
    if _is_zeros(operand):
        factors.append(Factor((("in", 1, 0), ("in", 2, 0)), reduce=True))
    return OpShardingRule(factors)


# ---------------------------------------------------------------------------
# dynamic slicing (serving loop)
# ---------------------------------------------------------------------------

@rule("dynamic_slice_in_dim")
def _dynamic_slice_rule(op):
    dim = op.attrs["dim"]
    rank = len(op.operands[0].type.shape)
    factors = [
        Factor((("in", 0, d), ("out", 0, d)))
        for d in range(rank)
        if d != dim
    ]
    return OpShardingRule(factors)


@rule("dynamic_update_slice_in_dim")
def _dynamic_update_slice_rule(op):
    dim = op.attrs["dim"]
    rank = len(op.operands[0].type.shape)
    factors = [
        Factor((("in", 0, d), ("in", 1, d), ("out", 0, d)))
        for d in range(rank)
        if d != dim
    ]
    return OpShardingRule(factors)


# ---------------------------------------------------------------------------
# convolution and resampling (spatial dims blocked, Section 8)
# ---------------------------------------------------------------------------

@rule("conv2d")
def _conv2d_rule(op):
    return OpShardingRule(
        [
            Factor((("in", 0, 0), ("out", 0, 0))),  # batch
            Factor((("in", 1, 0), ("out", 0, 1))),  # out channels
            Factor((("in", 0, 1), ("in", 1, 1)), reduce=True),  # in channels
        ]
    )


@rule("conv2d_input_grad")
def _conv2d_input_grad_rule(op):
    return OpShardingRule(
        [
            Factor((("in", 0, 0), ("out", 0, 0))),  # batch
            Factor((("in", 1, 1), ("out", 0, 1))),  # in channels
            Factor((("in", 0, 1), ("in", 1, 0)), reduce=True),  # out channels
        ]
    )


@rule("conv2d_kernel_grad")
def _conv2d_kernel_grad_rule(op):
    return OpShardingRule(
        [
            Factor((("in", 1, 1), ("out", 0, 0))),  # out channels
            Factor((("in", 0, 1), ("out", 0, 1))),  # in channels
            Factor((("in", 0, 0), ("in", 1, 0)), reduce=True),  # batch
        ]
    )


def _resample_rule(op):
    return OpShardingRule(
        [
            Factor((("in", 0, 0), ("out", 0, 0))),
            Factor((("in", 0, 1), ("out", 0, 1))),
        ]
    )


rule("upsample2d")(_resample_rule)
rule("downsample2d_sum")(_resample_rule)
