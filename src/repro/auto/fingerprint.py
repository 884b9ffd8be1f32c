"""Program identity: the canonical form of a traced function.

Everything that caches by program — the plan server's store
(:mod:`repro.auto.planstore`) and the transposition log
(:mod:`repro.auto.cache`) — asks :func:`canonicalize` which program it
holds.  The answer is a :class:`CanonicalForm` carrying two strings:

* ``digest`` — the program *up to spelling*.  Values are renumbered by a
  canonical order derived from the def-use graph, so the parameter order,
  the order in which independent ops were traced and the names of tags
  stop mattering.  Everything a plan's cost depends on enters it:
  structure, shapes, dtypes, cost-relevant attrs (a ``tag``'s
  ``name``/``auto`` markers are identity labels and are stripped), the
  mesh, the device and the initial shardings.
* ``layout`` — the *spelling*: one hex digest of the local-to-canonical
  maps of parameters, tag points, loops and ops (walk order).  Equal
  ``(digest, layout)`` means the same program as written, up to tag names.

The plan store keys by the digest alone: isomorphic programs share one
plan, stored in canonical index space and moved in and out of each
program's local space by ``encode_key``/``decode_key`` (a plan's actions
address parameter positions and tag-point / loop walk indices).  A store
hit is ``"exact"`` when the layouts agree.  The transposition log, whose
recorded costs are replayed blindly, keys by both strings: a trace-order
variant simulates a different peak memory, so it opens a log of its own.

The canonical order comes from integer colour refinement, one round each
way.  Every op's label (opcode, relaxed attrs, result types and
shardings, region digests) and every parameter's label is rendered once,
and the distinct labels are ranked by sorting.  A bottom-up pass then
colours ops depth by depth: an op's key is its label rank plus its
operands' colours, and each depth's distinct keys are ranked by sorting.
A top-down pass does the same height by height over each op's consumers
(with operand positions) and the function results it feeds.  Parameters
are ordered by colour; ops by depth, then colour, then the canonical
indices of their operands.  The digest is one hash over the ranked label
table and that linearization, so no colour depends on ``hash()`` or
``PYTHONHASHSEED``.

Caveats (documented, deliberate): ops that stay *indistinguishable* after
the refinement (structurally identical subgraphs fed identical inputs)
keep their traced order — swapping them is cost-neutral by construction.
Region bodies (e.g. ``scan``) canonicalize recursively with positional
carry parameters, since carries are semantically ordered.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Tuple

from repro.core.actions import index_space
from repro.core.pipeline import loop_ops
from repro.ir.function import Function
from repro.ir.tagpoints import tag_points
from repro.ir.values import canonical_attr

from repro.auto.tree import ActionKey, canonical_key

#: Attr keys stripped per opcode before hashing: pure identity labels with
#: no effect on lowering or cost.  ``tag`` markers are the only labelled
#: op today; extend this table if more appear.
COST_IRRELEVANT_ATTRS = {
    "tag": frozenset({"name", "auto"}),
}


def _type_key(env, value) -> tuple:
    """A value's static type and initial sharding (None when replicated)."""
    portable = None
    if env is not None:
        sharding = env.sharding(value)
        if sharding.pinned or not sharding.is_fully_replicated():
            portable = sharding.to_portable()
    return (value.type.shape, str(value.type.dtype), portable)


def _rank(keys, counter: int, width) -> Tuple[Dict, int]:
    """Colour each distinct key of ``keys`` by its sorted position,
    starting at ``counter``; ``width(key)`` colours are reserved per key.
    Returns ``(key -> colour, next counter)``."""
    colours = {}
    for key in sorted(set(keys)):
        colours[key] = counter
        counter += width(key)
    return colours, counter


class _FnCanon:
    """Canonical form of one function (or region body).

    ``param_order`` lists local parameter positions in canonical order
    and ``op_walk`` the body's ops, regions included, in canonical
    pre-order.
    """

    __slots__ = ("digest", "param_order", "op_walk")

    def __init__(self, digest, param_order, op_walk):
        self.digest = digest
        self.param_order = param_order
        self.op_walk = op_walk


def _canonicalize_fn(fn: Function, env, param_labels: List[tuple]) -> _FnCanon:
    """Canonicalize one function level (recursing into regions).  Bodies
    are closed (:mod:`repro.ir.verifier`): every operand is a parameter
    or an earlier op's result of the same level."""
    ops = fn.ops
    n_params = len(fn.params)

    # -- value slots: params, then op results -------------------------------
    slot = {id(p): i for i, p in enumerate(fn.params)}
    result_slots = []
    for op in ops:
        first = len(slot)
        for result in op.results:
            slot[id(result)] = len(slot)
        result_slots.append(range(first, len(slot)))
    n_slots = len(slot)

    # -- one pass: operand slots, uses, depths and labels ------------------
    depth = [0] * n_slots
    regions = []
    operand_slots = []
    uses: Dict[int, List[Tuple[int, int]]] = {}
    by_depth: List[List[int]] = []
    labels: Dict[tuple, int] = {}  # label -> first-seen id
    op_label = []
    for k, op in enumerate(ops):
        canons = [_canonicalize_fn(region, env, [
            ("rparam", i) + _type_key(env, p)
            for i, p in enumerate(region.params)]) for region in op.regions]
        regions.append(canons)
        row = [slot[id(operand)] for operand in op.operands]
        operand_slots.append(row)
        for pos, s in enumerate(row):
            uses.setdefault(s, []).append((k, pos))
        d = 1 + max(map(depth.__getitem__, row), default=0)
        for s in result_slots[k]:
            depth[s] = d
        if len(by_depth) < d:
            by_depth.append([])
        by_depth[d - 1].append(k)
        attrs = op.attrs
        drop = COST_IRRELEVANT_ATTRS.get(op.opcode)
        if drop:
            attrs = {key: v for key, v in attrs.items() if key not in drop}
        label = ("op", op.opcode, canonical_attr(attrs) if attrs else (),
                 tuple(_type_key(env, r) for r in op.results),
                 tuple(c.digest for c in canons))
        op_label.append(labels.setdefault(label, len(labels)))
    returned: Dict[int, List[int]] = {}  # position i renders as -1 - i
    for i, result in enumerate(fn.results):
        returned.setdefault(slot[id(result)], []).append(-1 - i)

    # -- labels ranked by their rendering -----------------------------------
    param_label = [labels.setdefault(label, len(labels))
                   for label in param_labels]
    table = sorted((repr(label), i, label) for label, i in labels.items())
    rank = [0] * len(table)
    for r, (_, i, _) in enumerate(table):
        rank[i] = r
    # An op colour reserves one colour per result (at least one).
    widths = [max(1, len(label[3])) if label[0] == "op" else 1
              for _, _, label in table]
    op_rank = [rank[i] for i in op_label]
    colour = [rank[i] for i in param_label] + [0] * (n_slots - n_params)

    # -- bottom-up colours, depth by depth ---------------------------------
    up = [0] * len(ops)
    counter = len(table)
    for level in by_depth:
        keys = [(op_rank[k], *map(colour.__getitem__, operand_slots[k]))
                for k in level]
        colours, counter = _rank(keys, counter, lambda key: widths[key[0]])
        for k, key in zip(level, keys):
            up[k] = colours[key]
            for j, s in enumerate(result_slots[k]):
                colour[s] = up[k] + j

    # -- top-down colours, height by height --------------------------------
    arity = 1 + max(map(len, operand_slots), default=0)
    down = [0] * len(ops)

    def consumers(s) -> tuple:
        return tuple(sorted([down[k] * arity + pos
                             for k, pos in uses.get(s, ())]
                            + returned.get(s, [])))

    height = [0] * len(ops)
    by_height: List[List[int]] = []
    for k in range(len(ops) - 1, -1, -1):
        h = 0
        for s in result_slots[k]:
            for consumer, _ in uses.get(s, ()):
                if height[consumer] >= h:
                    h = height[consumer] + 1
        height[k] = h
        if len(by_height) == h:
            by_height.append([])
        by_height[h].append(k)
    counter = 0
    for level in by_height:
        keys = [(op_rank[k], *map(consumers, result_slots[k])) for k in level]
        colours, counter = _rank(keys, counter, lambda _: 1)
        for k, key in zip(level, keys):
            down[k] = colours[key]

    # -- canonical order and linearization ----------------------------------
    param_order = sorted(range(n_params),
                         key=lambda s: (colour[s], consumers(s), s))
    index = [-1] * n_slots
    for i, s in enumerate(param_order):
        index[s] = i
    next_index = n_params
    linear = [n_params, len(ops), len(fn.results)]
    linear += [colour[s] for s in param_order]
    op_walk: List[object] = []
    for level in by_depth:
        wired = {k: [*map(index.__getitem__, operand_slots[k])] for k in level}
        level.sort(key=lambda k: (up[k], down[k], wired[k], k))
        for k in level:
            for s in result_slots[k]:
                index[s] = next_index
                next_index += 1
            linear.append(op_rank[k])
            linear.append(wired[k])
            op_walk.append(ops[k])
            for canon in regions[k]:
                op_walk += canon.op_walk
    linear.append([index[slot[id(r)]] for r in fn.results])
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update("\x1f".join(text for text, _, _ in table).encode())
    hasher.update(b"\x00")
    hasher.update(repr(linear).encode())
    return _FnCanon(hasher.digest(), param_order, op_walk)


@dataclasses.dataclass(frozen=True)
class CanonicalForm:
    """A function's program identity plus the index permutations needed
    to translate partition plans between its local index space and the
    canonical space shared by every isomorphic program.

    ``digest`` is the program up to spelling and ``layout`` the spelling
    (both hex; see the module docstring).  ``param_to_canon`` maps a local
    parameter index to its canonical rank (``canon_to_param`` is the
    inverse); ``tag_to_canon``/``canon_to_tag`` and
    ``loop_to_canon``/``canon_to_loop`` do the same for tag-point and
    loop-op indices (which space an action addresses is its kind's
    :func:`~repro.core.actions.index_space`).
    """

    digest: str
    layout: str
    param_to_canon: Tuple[int, ...]
    canon_to_param: Tuple[int, ...]
    tag_to_canon: Tuple[int, ...]
    canon_to_tag: Tuple[int, ...]
    loop_to_canon: Tuple[int, ...]
    canon_to_loop: Tuple[int, ...]

    def encode_key(self, key) -> ActionKey:
        """Local-space canonical action set -> canonical-space set."""
        return _translate(key, {"param": self.param_to_canon,
                                "tag": self.tag_to_canon,
                                "loop": self.loop_to_canon})

    def decode_key(self, key) -> ActionKey:
        """Canonical-space action set -> this program's local space."""
        return _translate(key, {"param": self.canon_to_param,
                                "tag": self.canon_to_tag,
                                "loop": self.canon_to_loop})


def _translate(key, maps: Dict[str, Tuple[int, ...]]) -> ActionKey:
    """``key`` with each index moved through its kind's space's map
    (:func:`~repro.core.actions.index_space`); served plans are outside
    input, so an index the map lacks is an ``IndexError``."""
    translated = []
    for kind, index, dim, axis in key:
        space = index_space(kind)
        mapping = maps[space]
        if not 0 <= index < len(mapping):
            raise IndexError(f"{space} index {index} out of range")
        translated.append((kind, mapping[index], dim, axis))
    return canonical_key(translated)


def _permutation(ranks) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(local -> canonical, canonical -> local)`` for a list of local
    indices given in canonical order."""
    to_canon = [0] * len(ranks)
    for rank, local in enumerate(ranks):
        to_canon[local] = rank
    return tuple(to_canon), tuple(ranks)


def canonicalize(function: Function, mesh, device=None,
                 env=None) -> CanonicalForm:
    """Canonicalize ``function`` in its search context.

    Hashes everything a partition plan's cost depends on — structure,
    shapes/dtypes, cost-relevant attrs, mesh, device, initial shardings —
    under the canonical renumbering, so isomorphic contexts share one
    digest, and the renumbering itself into the layout (see the module
    docstring).

    >>> from repro import Mesh, ShapeDtype, trace
    >>> from repro.trace import ops
    >>> def spelled(order):
    ...     def fn(*args):
    ...         named = dict(zip(order, args))
    ...         return ops.reduce_sum(named["x"] @ named["w"])
    ...     shapes = {"x": ShapeDtype((8, 4)), "w": ShapeDtype((4, 2))}
    ...     return trace(fn, *(shapes[n] for n in order)).function
    >>> a = canonicalize(spelled("xw"), Mesh({"d": 2}))
    >>> b = canonicalize(spelled("wx"), Mesh({"d": 2}))
    >>> a.digest == b.digest, a.layout == b.layout
    (True, False)
    >>> b.decode_key(a.encode_key(((0, 0, 0, "d"),)))  # x is param 1 in b
    ((0, 1, 0, 'd'),)
    """
    canon = _canonicalize_fn(function, env, [
        ("param",) + _type_key(env, p) for p in function.params])
    hasher = hashlib.blake2b(canon.digest, digest_size=16)
    hasher.update(repr(tuple(sorted(mesh.axes.items()))).encode())
    if device is not None:
        if dataclasses.is_dataclass(device):
            device = dataclasses.asdict(device)
        hasher.update(repr(canonical_attr(device)).encode())

    position = {id(op): i for i, op in enumerate(canon.op_walk)}
    op_to_canon = tuple(position[id(op)] for op in function.index.ops)

    def by_position(found) -> List[int]:
        return sorted(range(len(found)),
                      key=lambda i: position[id(found[i])])

    param_to_canon, canon_to_param = _permutation(canon.param_order)
    tag_to_canon, canon_to_tag = _permutation(
        by_position([point.op for point in tag_points(function)]))
    loop_to_canon, canon_to_loop = _permutation(
        by_position(loop_ops(function)))
    layout = hashlib.blake2b(repr((
        param_to_canon, tag_to_canon, loop_to_canon, op_to_canon,
    )).encode(), digest_size=16)
    return CanonicalForm(
        digest=hasher.hexdigest(),
        layout=layout.hexdigest(),
        param_to_canon=param_to_canon,
        canon_to_param=canon_to_param,
        tag_to_canon=tag_to_canon,
        canon_to_tag=canon_to_tag,
        loop_to_canon=loop_to_canon,
        canon_to_loop=canon_to_loop,
    )
