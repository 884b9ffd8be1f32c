"""Relaxed fingerprints: canonicalization of traced functions.

The exact :func:`repro.auto.cache.function_fingerprint` hashes a traced
function *as written*: parameter order, traced op order, and every attr —
including pure labels like ``tag`` names — enter the digest.  That is the
right correctness tier for a persistent cache (nothing can ever collide),
but it makes near-identical programs share nothing: alpha-renaming a tag,
or tracing ``f(x, w)`` as ``f(w, x)``, produces a different fingerprint
for what is the same partitioning problem.

This module adds the **relaxed fingerprint**: a canonicalization pass that

* renumbers values by a *stable topological order* derived from structural
  signatures (two rounds of Weisfeiler-Lehman-style refinement over the
  def-use graph: a bottom-up pass hashing each value's producing
  computation and a top-down pass hashing its consumers), so the traced
  order and the parameter order stop mattering,
* hashes only **cost-relevant attrs** (a ``tag``'s ``name``/``auto``
  markers are identity labels, not cost inputs — they are stripped), and
* renders the initial sharding state, the mesh and the device in the
  canonical numbering,

so alpha-renamed or input-permuted-but-isomorphic programs land on the
same relaxed key — the plan server's one store key
(:mod:`repro.auto.planstore`).  The exact fingerprint remains the
correctness tier of the transposition log, whose recorded *costs* are
replayed blindly; a relaxed hit serves a *plan* (re-validated by
application), never a blind cost override, and truly different programs
(shapes, dtypes, mesh, device, initial shardings) hash differently under
both fingerprints.

Because a plan's actions reference *local* indices (parameter positions,
tag-point walk indices), a relaxed hit between two isomorphic programs
must translate indices through the canonical numbering:
:class:`CanonicalForm` carries the permutations and offers
``encode_key``/``decode_key`` to move canonical action sets between a
program's local index space and the shared canonical space.

Caveats (documented, deliberate): ops that are *mutually
indistinguishable* after two refinement rounds (structurally identical
subgraphs fed identical inputs) may order arbitrarily — swapping them is
cost-neutral by construction, which is all the relaxed fingerprint
promises.
Region bodies (e.g. ``scan``) canonicalize recursively with positional
carry parameters, since carries are semantically ordered.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.actions import PIPELINE, TILE_INPUT
from repro.core.pipeline import loop_ops
from repro.ir.function import Function
from repro.ir.tagpoints import tag_points

from repro.auto.cache import _canon
from repro.auto.tree import ActionKey, canonical_key

#: Attr keys stripped per opcode before hashing: pure identity labels with
#: no effect on lowering or cost.  ``tag`` markers are the only labelled
#: op today; extend this table if more appear.
COST_IRRELEVANT_ATTRS = {
    "tag": frozenset({"name", "auto"}),
}


def _h(*parts) -> bytes:
    """Stable structural hash of a tuple of parts (bytes pass through,
    everything else by ``repr``)."""
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part if isinstance(part, bytes)
                      else repr(part).encode())
        hasher.update(b"\x1f")
    return hasher.digest()


def _relaxed_attrs(op) -> tuple:
    """Canonical rendering of an op's cost-relevant attrs."""
    drop = COST_IRRELEVANT_ATTRS.get(op.opcode)
    attrs = op.attrs
    if drop:
        attrs = {k: v for k, v in attrs.items() if k not in drop}
    return _canon(attrs)


def _portable_or_none(env, value):
    if env is None:
        return None
    sharding = env.sharding(value)
    if sharding.is_fully_replicated() and not sharding.pinned:
        return None
    return sharding.to_portable()


class _FnCanon:
    """Canonical form of one function (or region body).

    ``param_order``/``op_order`` are the canonical orders;
    ``value_order`` is the full canonical value enumeration (params, then
    each canonical op's results, then — recursively — its regions'
    canonical values), the relaxed analogue of
    :func:`repro.core.sharding.enumerate_function_values`.
    """

    __slots__ = ("digest", "param_order", "op_order", "value_order")

    def __init__(self, digest, param_order, op_order, value_order):
        self.digest = digest
        self.param_order = param_order
        self.op_order = op_order
        self.value_order = value_order


def _canonicalize_fn(fn: Function, env, param_seeds: List[tuple],
                     region_cache: Dict[int, _FnCanon],
                     rounds: int = 2) -> _FnCanon:
    """Canonicalize one function level (recursing into regions)."""
    ops = fn.ops
    attrs_c = {id(op): _relaxed_attrs(op) for op in ops}
    region_canons: Dict[int, Tuple[_FnCanon, ...]] = {}
    for op in ops:
        canons = []
        for region in op.regions:
            cached = region_cache.get(id(region))
            if cached is None:
                seeds = [
                    ("rparam", i, p.type.shape, str(p.type.dtype),
                     _portable_or_none(env, p))
                    for i, p in enumerate(region.params)
                ]
                cached = _canonicalize_fn(region, env, seeds, region_cache,
                                          rounds)
                region_cache[id(region)] = cached
            canons.append(cached)
        region_canons[id(op)] = tuple(canons)

    uses: Dict[object, List[tuple]] = {}
    for op in ops:
        for pos, operand in enumerate(op.operands):
            uses.setdefault(operand, []).append((op, pos))
    rets: Dict[object, List[int]] = {}
    for i, result in enumerate(fn.results):
        rets.setdefault(result, []).append(i)

    # -- WL-style refinement: bottom-up then top-down, `rounds` times ------
    val_sig: Dict[object, bytes] = {}
    op_sig: Dict[int, bytes] = {}
    down_val: Dict[object, bytes] = {p: b"" for p in fn.params}
    for op in ops:
        for result in op.results:
            down_val[result] = b""
    for _ in range(max(rounds, 1)):
        for i, param in enumerate(fn.params):
            val_sig[param] = _h("param", param_seeds[i],
                                down_val.get(param, b""))
        for op in ops:
            sig = _h(
                "op", op.opcode, attrs_c[id(op)],
                tuple(val_sig.get(o, _h("ext", repr(o.type)))
                      for o in op.operands),
                tuple(c.digest for c in region_canons[id(op)]),
                len(op.results),
                down_val.get(op.results[0], b"") if op.results else b"",
            )
            op_sig[id(op)] = sig
            for j, result in enumerate(op.results):
                val_sig[result] = _h("res", sig, j, result.type.shape,
                                     str(result.type.dtype),
                                     _portable_or_none(env, result))
        # Top-down: each value's consumers, order-independent (sorted).
        down_op: Dict[int, bytes] = {}
        for op in reversed(ops):
            for result in op.results:
                items = [_h("use", down_op[id(c)], pos)
                         for c, pos in uses.get(result, ())]
                items += [_h("ret", i) for i in rets.get(result, ())]
                down_val[result] = _h("down", tuple(sorted(items)))
            down_op[id(op)] = _h(
                "dop", op.opcode, attrs_c[id(op)],
                tuple(down_val[r] for r in op.results),
            )
        for param in fn.params:
            items = [_h("use", down_op[id(c)], pos)
                     for c, pos in uses.get(param, ())]
            items += [_h("ret", i) for i in rets.get(param, ())]
            down_val[param] = _h("down", tuple(sorted(items)))

    final_val = {v: _h("fv", sig, down_val.get(v, b""))
                 for v, sig in val_sig.items()}
    final_op = {id(op): _h("fo", op_sig[id(op)],
                           tuple(final_val[r] for r in op.results))
                for op in ops}

    # -- canonical order: params by signature, ops by Kahn + signature -----
    param_order = sorted(range(len(fn.params)),
                         key=lambda i: (final_val[fn.params[i]], i))
    index: Dict[object, int] = {}
    value_order: List[object] = []

    def assign(value) -> None:
        index[value] = len(value_order)
        value_order.append(value)

    for i in param_order:
        assign(fn.params[i])

    # Readiness counts only *op-result* operands: params are assigned
    # before the loop starts and never "release".
    result_values = set()
    for op in ops:
        result_values.update(op.results)
    pending = {}
    dependents: Dict[object, List] = {}
    for op in ops:
        needed = {o for o in op.operands if o in result_values}
        pending[id(op)] = len(needed)
        for operand in needed:
            dependents.setdefault(operand, []).append(op)

    heap: List[tuple] = []
    seq = 0

    def push_ready(op) -> None:
        nonlocal seq
        operand_idx = tuple(index.get(o, -1) for o in op.operands)
        heapq.heappush(heap, (final_op[id(op)], operand_idx, seq, op))
        seq += 1

    for op in ops:
        if pending[id(op)] == 0:
            push_ready(op)
    op_order: List[object] = []
    released = set()
    while heap:
        _, _, _, op = heapq.heappop(heap)
        op_order.append(op)
        for result in op.results:
            assign(result)
        for canon in region_canons[id(op)]:
            for value in canon.value_order:
                assign(value)
        for result in op.results:
            if id(result) in released:
                continue
            released.add(id(result))
            for dependent in dependents.get(result, ()):
                pending[id(dependent)] -= 1
                if pending[id(dependent)] == 0:
                    push_ready(dependent)
    if len(op_order) != len(ops):  # cyclic/ill-formed: keep program order
        op_order = list(ops)
        value_order = list(fn.params)
        index = {p: i for i, p in enumerate(fn.params)}
        for op in ops:
            for result in op.results:
                assign(result)
            for canon in region_canons[id(op)]:
                for value in canon.value_order:
                    assign(value)

    # -- linearized digest --------------------------------------------------
    hasher = hashlib.blake2b(digest_size=16)

    def feed(payload) -> None:
        hasher.update(payload if isinstance(payload, bytes)
                      else repr(payload).encode())
        hasher.update(b"\x00")

    feed(("fn", len(fn.params), len(ops), len(fn.results)))
    for rank, i in enumerate(param_order):
        param = fn.params[i]
        feed(("param", rank, param.type.shape, str(param.type.dtype),
              param_seeds[i]))
    for op in op_order:
        feed(("op", op.opcode, attrs_c[id(op)],
              tuple(index.get(o, -1) for o in op.operands),
              tuple((index[r], r.type.shape, str(r.type.dtype))
                    for r in op.results)))
        for canon in region_canons[id(op)]:
            feed(("region", canon.digest))
    feed(("results", tuple(index.get(r, -1) for r in fn.results)))
    return _FnCanon(hasher.digest(), param_order, op_order, value_order)


@dataclasses.dataclass(frozen=True)
class CanonicalForm:
    """A function's relaxed fingerprint plus the index permutations needed
    to translate partition plans between its local index space and the
    canonical space shared by every isomorphic program.

    ``digest`` is the relaxed fingerprint (hex).  ``param_to_canon`` maps
    a local parameter index to its canonical rank (``canon_to_param`` is
    the inverse); ``tag_to_canon``/``canon_to_tag`` and
    ``loop_to_canon``/``canon_to_loop`` do the same for tag-point and
    loop-op indices (``PIPELINE`` actions address loops, not tags).
    """

    digest: str
    param_to_canon: Tuple[int, ...]
    canon_to_param: Tuple[int, ...]
    tag_to_canon: Tuple[int, ...]
    canon_to_tag: Tuple[int, ...]
    loop_to_canon: Tuple[int, ...] = ()
    canon_to_loop: Tuple[int, ...] = ()

    @property
    def layout(self) -> Tuple[Tuple[int, ...], ...]:
        """The local-to-canonical maps ``(params, tags, loops)``: two
        programs with one digest and equal layouts decode a canonical plan
        to the same local actions."""
        return (self.param_to_canon, self.tag_to_canon, self.loop_to_canon)

    def _map_action(self, action, params, tags, loops):
        kind, index, dim, axis = action
        if kind == TILE_INPUT:
            if index >= len(params):
                raise IndexError(f"param index {index} out of range")
            return (kind, params[index], dim, axis)
        if kind == PIPELINE:
            if index >= len(loops):
                raise IndexError(f"loop index {index} out of range")
            return (kind, loops[index], dim, axis)
        if index >= len(tags):
            raise IndexError(f"tag index {index} out of range")
        return (kind, tags[index], dim, axis)

    def encode_key(self, key) -> ActionKey:
        """Local-space canonical action set -> canonical-space set."""
        return canonical_key([
            self._map_action(a, self.param_to_canon, self.tag_to_canon,
                             self.loop_to_canon)
            for a in key
        ])

    def decode_key(self, key) -> ActionKey:
        """Canonical-space action set -> this program's local space."""
        return canonical_key([
            self._map_action(a, self.canon_to_param, self.canon_to_tag,
                             self.canon_to_loop)
            for a in key
        ])


def canonicalize(function: Function, mesh, device=None,
                 env=None) -> CanonicalForm:
    """Canonicalize ``function`` in its search context.

    Hashes everything a partition plan's cost depends on — structure,
    shapes/dtypes, cost-relevant attrs, mesh, device, initial shardings —
    under the canonical renumbering, so isomorphic contexts share one
    digest (see the module docstring for what "isomorphic" means here).
    """
    region_cache: Dict[int, _FnCanon] = {}
    seeds = [
        ("seed", p.type.shape, str(p.type.dtype), _portable_or_none(env, p))
        for p in function.params
    ]
    canon = _canonicalize_fn(function, env, seeds, region_cache)
    index = {v: i for i, v in enumerate(canon.value_order)}

    hasher = hashlib.blake2b(digest_size=16)

    def feed(payload) -> None:
        hasher.update(repr(payload).encode())
        hasher.update(b"\x00")

    feed(("body", canon.digest))
    feed(("mesh", tuple(sorted(mesh.axes.items()))))
    if device is not None:
        feed(("device", _canon(dataclasses.asdict(device))
              if dataclasses.is_dataclass(device) else repr(device)))
    if env is not None:
        entries = []
        for value, i in index.items():
            portable = _portable_or_none(env, value)
            if portable is not None:
                entries.append((i, portable))
        feed(("env", tuple(sorted(entries))))

    param_to_canon = [0] * len(function.params)
    for rank, i in enumerate(canon.param_order):
        param_to_canon[i] = rank
    canon_to_param = [0] * len(function.params)
    for i, rank in enumerate(param_to_canon):
        canon_to_param[rank] = i

    points = tag_points(function)
    ranked = sorted(range(len(points)),
                    key=lambda i: index.get(points[i].value, -1))
    tag_to_canon = [0] * len(points)
    for rank, i in enumerate(ranked):
        tag_to_canon[i] = rank
    canon_to_tag = [0] * len(points)
    for i, rank in enumerate(tag_to_canon):
        canon_to_tag[rank] = i

    loops = loop_ops(function)
    loop_ranked = sorted(range(len(loops)),
                         key=lambda i: index.get(loops[i].results[0], -1))
    loop_to_canon = [0] * len(loops)
    for rank, i in enumerate(loop_ranked):
        loop_to_canon[i] = rank
    canon_to_loop = [0] * len(loops)
    for i, rank in enumerate(loop_to_canon):
        canon_to_loop[rank] = i

    return CanonicalForm(
        digest=hasher.hexdigest(),
        param_to_canon=tuple(param_to_canon),
        canon_to_param=tuple(canon_to_param),
        tag_to_canon=tuple(tag_to_canon),
        canon_to_tag=tuple(canon_to_tag),
        loop_to_canon=tuple(loop_to_canon),
        canon_to_loop=tuple(canon_to_loop),
    )


def relaxed_fingerprint(function: Function, mesh, device=None,
                        env=None) -> str:
    """The relaxed fingerprint alone (see :func:`canonicalize`)."""
    return canonicalize(function, mesh, device, env).digest
