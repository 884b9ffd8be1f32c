"""Minimal pytree utilities (nested dict/list/tuple containers of leaves).

The tracer uses these to turn nested parameter dictionaries into flat IR
function parameters with stable, path-derived names, the way JAX flattens
pytrees for ``jit``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

Leaf = Any


def flatten(tree: Any) -> Tuple[List[Leaf], Any]:
    """Flatten a pytree; returns (leaves, treedef).

    Dict keys are traversed in sorted order for determinism.
    """
    leaves: List[Leaf] = []

    def build(node):
        if isinstance(node, dict):
            return ("dict", [(k, build(node[k])) for k in sorted(node)])
        if isinstance(node, (list, tuple)):
            kind = "list" if isinstance(node, list) else "tuple"
            return (kind, [build(child) for child in node])
        leaves.append(node)
        return ("leaf", None)

    treedef = build(tree)
    return leaves, treedef


def unflatten(treedef: Any, leaves: List[Leaf]) -> Any:
    it = iter(leaves)

    def build(node):
        kind, payload = node
        if kind == "dict":
            return {k: build(child) for k, child in payload}
        if kind == "list":
            return [build(child) for child in payload]
        if kind == "tuple":
            return tuple(build(child) for child in payload)
        return next(it)

    result = build(treedef)
    rest = list(it)
    if rest:
        raise ValueError(f"unflatten got {len(rest)} extra leaves")
    return result


def flatten_with_paths(tree: Any, prefix: str = "") -> List[Tuple[str, Leaf]]:
    """Flatten to (dotted-path, leaf) pairs, matching flatten()'s order."""
    out: List[Tuple[str, Leaf]] = []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{path}.{k}" if path else str(k))
        elif isinstance(node, (list, tuple)):
            for i, child in enumerate(node):
                walk(child, f"{path}.{i}" if path else str(i))
        else:
            out.append((path, node))

    walk(tree, prefix)
    return out


def tree_map(fn: Callable[..., Any], tree: Any, *rest: Any) -> Any:
    """Map ``fn`` over corresponding leaves of one or more pytrees."""
    leaves, treedef = flatten(tree)
    other_leaves = []
    for other in rest:
        other_flat, other_def = flatten(other)
        if other_def != treedef:
            raise ValueError("tree_map: pytree structures differ")
        other_leaves.append(other_flat)
    mapped = [fn(*args) for args in zip(leaves, *other_leaves)]
    return unflatten(treedef, mapped)


def tree_leaves(tree: Any) -> List[Leaf]:
    return flatten(tree)[0]
