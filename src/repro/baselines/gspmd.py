"""A GSPMD-style baseline partitioner (for the Figure 7 comparison).

GSPMD differs from PartIR in two ways the paper's evaluation isolates:

1. **One-shot whole-module propagation**: all sharding annotations are seeded
   at once; there is no tactic ordering to resolve conflicts.
2. **Heuristic conflict resolution**: where PartIR blocks and records a
   conflict, this baseline *picks a side* with a fixed per-op tie-breaking
   rule, and relies on user-placed internal ``sharding constraints`` (tags)
   to steer it — the paper's account of why GSPMD needs carefully placed
   annotations inside model code (found "by trial-and-error").

``use_internal_constraints=False`` gives the paper's GSPMD-- configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import actions as core_actions
from repro.core.propagate import Propagator
from repro.core.sharding import ShardingEnv
from repro.ir.function import Function
from repro.ir.values import Operation
from repro.mesh import Mesh


class _GspmdPropagator(Propagator):
    """Propagation with greedy conflict resolution instead of blocking.

    Tie-break: the highest factor id wins.  Per-op factor lists put batch-like
    (leading, data-parallel) factors first, so this rule systematically
    prefers parameter/contraction shardings over activation shardings when
    both match — a fixed heuristic in the spirit of GSPMD's per-op rules,
    and the source of the mis-sharding that internal constraints must fix
    (cf. the paper's discussion of openxla/xla#13875).
    """

    def _choose(self, op: Operation, axis: str,
                extendable: List[int]) -> Optional[int]:
        if len(extendable) > 1:
            self._report_once(
                op, axis, "conflict",
                "{}: resolved greedily among {}",
                op.opcode, sorted(extendable))
        return max(extendable)  # fixed tie-break (see class docstring)


def gspmd_partition(
    function: Function,
    mesh: Mesh,
    annotations: Dict[str, Tuple[int, str]],
    internal_constraints: Optional[Dict[str, Tuple[int, str]]] = None,
    use_internal_constraints: bool = True,
) -> ShardingEnv:
    """Partition with GSPMD-style single-shot annotation propagation.

    ``annotations`` maps input-name patterns to (dim, axis); the optional
    ``internal_constraints`` maps ``tag`` names to (dim, axis) — the
    with_sharding_constraint calls a GSPMD user must place inside the model.
    Returns the solved sharding environment (lower it with repro.spmd).
    """
    env = ShardingEnv(mesh)
    inputs = list(zip(function.input_names, function.params))
    for key, spec in annotations.items():
        specs = spec if isinstance(spec, list) else [spec]
        for name, value in inputs:
            if not _matches(key, name):
                continue
            for dim, axis in specs:
                sharding = env.sharding(value)
                if sharding.tile_refusal(dim, axis, value.type.shape[dim],
                                         mesh):
                    continue
                env.set_sharding(value, sharding.with_tile(dim, axis))
    if use_internal_constraints and internal_constraints:
        for tag_name, (dim, axis) in internal_constraints.items():
            try:
                value = core_actions.find_tagged(function, tag_name)
            except KeyError:
                continue
            sharding = env.sharding(value)
            if axis not in sharding.used:
                env.set_sharding(value, sharding.with_tile(dim, axis))
    # Single shot: every annotation races in one fixed-point propagation.
    _GspmdPropagator(function, env).run()
    return env


def _matches(key: str, name: str) -> bool:
    key_parts = key.split("/")
    name_parts = name.split("/")
    n, k = len(name_parts), len(key_parts)
    return any(name_parts[i:i + k] == key_parts for i in range(n - k + 1))
